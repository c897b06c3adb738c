"""The Lie-Poisson bracket on the symmetric algebra and the argument-shift
construction of commuting families.

Polynomials live in the dual coordinates of a fixed structure-constant
algebra.  The bracket is the unique biderivation extending the structure
constants; shifting an argument expands f(mu + a*xi) exactly and collects
the coefficients of the powers of a.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q

from . import linalg
from .errors import BudgetError
from .poly import Poly
from .structure import LieAlgebra, index, b_value, is_regular, sample_covector

BRACKET_TERM_BUDGET = 1_000_000
BRACKET_DEGREE_BUDGET = 10_000

# re-exported here because the polynomial type is part of this module's
# public surface
__all__ = [
    "Poly", "ShiftFamily", "poisson_bracket", "shift", "mf_family",
    "pairwise_commuting", "jacobian_rank_at", "trdeg_lower_bound",
    "regularity_via_differentials",
]


def poisson_bracket(q: LieAlgebra, f: Poly, g: Poly) -> Poly:
    """{f, g} extended from {x_i, x_j} = sum_k c_ij^k x_k by the Leibniz
    rule; raises :class:`BudgetError` when the term-count product is too
    large to expand symbolically."""
    if f.nvars != q.dim or g.nvars != q.dim:
        raise ValueError("variable-count mismatch")
    if len(f.terms) * len(g.terms) > BRACKET_TERM_BUDGET:
        raise BudgetError(
            f"bracket of {len(f.terms)} x {len(g.terms)} terms exceeds the budget")
    if f.degree() * g.degree() > BRACKET_DEGREE_BUDGET:
        raise BudgetError(
            f"bracket of degrees {f.degree()} x {g.degree()} exceeds the budget")
    n = q.dim
    df = {}
    dg = {}

    def partial(poly: Poly, i: int, cache: dict) -> Poly:
        if i not in cache:
            cache[i] = poly.partial(i)
        return cache[i]

    out = Poly.zero(n)
    for (i, j), entry in q.sc.items():
        fi = partial(f, i, df)
        gj = partial(g, j, dg)
        fj = partial(f, j, df)
        gi = partial(g, i, dg)
        if (fi.is_zero() or gj.is_zero()) and (fj.is_zero() or gi.is_zero()):
            continue
        wedge = fi * gj - fj * gi
        if wedge.is_zero():
            continue
        lin = Poly(n, {tuple(1 if t == k else 0 for t in range(n)): c
                       for k, c in entry.items()})
        out = out + lin * wedge
    return out


def bracket_with_coordinate(q: LieAlgebra, i: int, f: Poly) -> Poly:
    """{x_i, f}, computed directly; cheaper than the generic bracket."""
    n = q.dim
    out = Poly.zero(n)
    for j in range(n):
        entry = q.bracket_basis(i, j)
        if not entry:
            continue
        fj = f.partial(j)
        if fj.is_zero():
            continue
        lin = Poly(n, {tuple(1 if t == k else 0 for t in range(n)): c
                       for k, c in entry.items()})
        out = out + lin * fj
    return out


def shift(f: Poly, xi) -> list[Poly]:
    """The argument-shift components f_xi^j for j = 0..deg(f)-1.

    These are the coefficients of a^j in f(mu + a*xi); the top coefficient
    j = deg(f) is a constant and is discarded.
    """
    if f.is_zero():
        raise ValueError("shift of the zero polynomial")
    comps = f.shift_components(xi)
    return comps[: f.degree()] if f.degree() >= 1 else comps[:1]


@dataclass
class ShiftFamily:
    """All shift components of a generating set in a fixed direction."""

    algebra: LieAlgebra
    direction: tuple[Q, ...]
    generators: list[Poly]
    components: list[tuple[int, int, Poly]] = field(default_factory=list)

    def polys(self) -> list[Poly]:
        return [p for _, _, p in self.components]


def mf_family(q: LieAlgebra, gens: list[Poly], xi) -> ShiftFamily:
    """Shift family of Poisson-central generators in direction xi.

    Every generator is first verified to be central; the offending
    coordinate bracket is reported otherwise.
    """
    for g in gens:
        for i in range(q.dim):
            br = bracket_with_coordinate(q, i, g)
            if not br.is_zero():
                raise ValueError(
                    f"generator {g.to_text(q.labels)} is not central: "
                    f"{{{q.labels[i]}, f}} = {br.to_text(q.labels)}")
    fam = ShiftFamily(q, tuple(Q(x) for x in xi), list(gens))
    for gi, g in enumerate(gens):
        comps = shift(g, xi)
        for j, p in enumerate(comps):
            if not p.is_zero():
                fam.components.append((gi, j, p))
    return fam


def pairwise_commuting(q: LieAlgebra, polys: list[Poly]):
    """(True, None) if all brackets vanish symbolically, else a witness
    (False, (i, j, bracket))."""
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            br = poisson_bracket(q, polys[i], polys[j])
            if not br.is_zero():
                return False, (i, j, br)
    return True, None


def jacobian_rank_at(polys: list[Poly], mu) -> int:
    rows = [p.grad_at(mu) for p in polys]
    return linalg.rank(rows)


def trdeg_lower_bound(polys: list[Poly], trials: int = 8, seed: int = 1) -> int:
    """Certified lower bound for the transcendence degree: the maximum
    Jacobian rank over sampled points."""
    if not polys:
        return 0
    rng = random.Random(seed)
    nvars = polys[0].nvars
    best = 0
    for _ in range(trials):
        mu = sample_covector(nvars, rng, bound=997)
        best = max(best, jacobian_rank_at(polys, mu))
    return best


def regularity_via_differentials(q: LieAlgebra, free_gens: list[Poly], xi) -> bool:
    """Regularity test through the differentials of a free generating set of
    the Poisson centre: xi is regular iff the differentials at xi are
    linearly independent.

    Preconditions (asserted): the generators are central, there are
    index-many of them, their degrees sum to b(q), and they are
    algebraically independent.  The verdict is cross-checked against the
    Kirillov-kernel notion of regularity.
    """
    l = index(q)
    if len(free_gens) != l:
        raise ValueError(f"need index-many generators: got {len(free_gens)}, want {l}")
    total = sum(p.degree() for p in free_gens)
    b = b_value(q)
    if total != b:
        raise ValueError(f"degree sum {total} does not match b = {b}")
    for g in free_gens:
        for i in range(q.dim):
            if not bracket_with_coordinate(q, i, g).is_zero():
                raise ValueError("generator is not central")
    if trdeg_lower_bound(free_gens, trials=12, seed=7) != l:
        raise ValueError("generators are not algebraically independent")
    verdict = jacobian_rank_at(free_gens, xi) == l
    if verdict != is_regular(q, xi):
        raise AssertionError(
            "differential criterion disagrees with the Kirillov-kernel test")
    return verdict
