"""The Lie-Poisson bracket on the symmetric algebra and the argument-shift
construction of commuting families.

Polynomials live in the dual coordinates of a fixed structure-constant
algebra.  The bracket is the unique biderivation extending the structure
constants; shifting an argument expands f(mu + a*xi) exactly and collects
the coefficients of the powers of a.

One route each: brackets go through ``bracket_with_coordinate``, the
centrality of a polynomial through ``verify_central``, and the index that
central polynomials certify through ``certified_index``, which reads their
gradient rows at sampled points: from the polynomials (``gradients``) or,
with no polynomial built, from ``invariants.PointwiseInvariants``.  The
classical invariants of g and their tops are the one exception to
``verify_central``: they are built on the trace-form duals that
``structure.MatrixRealization.duals`` certifies by a linear equivariance
check of the generic matrix, and ``verify_central`` is the test oracle for
that certificate.
"""

from __future__ import annotations

from math import lcm, prod
from operator import add as _add

from . import linalg
from .errors import BudgetError
from .poly import TERM_BUDGET, Poly
from .structure import LieAlgebra, index, kirillov_corank

BRACKET_DEGREE_BUDGET = 10_000


def bracket_with_coordinate(q: LieAlgebra, i: int, f: Poly) -> Poly:
    """{x_i, f} = sum_j {x_i, x_j} d_j f; every bracket and centrality check
    goes through it.

    Walks only the nonzero structure constants ``c_ij^k`` of row i, read
    from ``q.bracket_rows`` (built once per algebra), and, for each term
    ``c x^e`` of f with ``e_j > 0``, writes ``c e_j c_ij^k x^(e - u_j +
    u_k)`` into one dict; no partial derivative or product is built.
    """
    row = q.bracket_rows[i]
    out: dict = {}
    get = out.get
    for e, c in f.terms.items():
        for j, sign, entry in row:
            p = e[j]
            if not p:
                continue
            base = list(e)
            base[j] -= 1
            cp = sign * c * p
            for k, ck in entry.items():
                base[k] += 1
                key = tuple(base)
                base[k] -= 1
                out[key] = get(key, 0) + cp * ck
    return Poly(q.dim, {e: c for e, c in out.items() if c})


def _check_bracket_budget(f: tuple[int, int], g: tuple[int, int]) -> None:
    """Raise :class:`BudgetError` when a bracket of polynomials with these
    (term count, degree) shapes is too large to expand symbolically."""
    if f[0] * g[0] > TERM_BUDGET:
        raise BudgetError(f"bracket of {f[0]} x {g[0]} terms exceeds the budget")
    if f[1] * g[1] > BRACKET_DEGREE_BUDGET:
        raise BudgetError(
            f"bracket of degrees {f[1]} x {g[1]} exceeds the budget")


def _shape(p: Poly) -> tuple[int, int]:
    return len(p.terms), p.degree()


def _variables(p: Poly) -> set[int]:
    return {k for k, column in enumerate(zip(*p.terms)) if any(column)}


def _bracket_along(f: Poly, ham: dict[int, Poly]) -> Poly:
    """{f, h} = sum_k d_k f * X_h^k from the Hamiltonian vector of h, given
    as ``{k: {x_k, h}}`` over (at least) the variables of f with the zero
    entries left out; the products are accumulated in one dict."""
    out: dict = {}
    get = out.get
    for e, c in f.terms.items():
        for k, p in enumerate(e):
            if not p or k not in ham:
                continue
            base = list(e)
            base[k] -= 1
            cp = c * p
            for eh, ch in ham[k].terms.items():
                key = tuple(map(_add, base, eh))
                out[key] = get(key, 0) + cp * ch
    return Poly(f.nvars, {e: c for e, c in out.items() if c})


def _hamiltonian(q: LieAlgebra, h: Poly, coords) -> dict[int, Poly]:
    """X_h = ({x_k, h})_k over the given coordinates, zeros left out."""
    return {k: br for k in coords if (br := bracket_with_coordinate(q, k, h))}


def poisson_bracket(q: LieAlgebra, f: Poly, g: Poly) -> Poly:
    """{f, g} = sum_i d_i f * {x_i, g}, the Leibniz rule in the first
    argument, with {x_i, g} taken only for the variables of f; raises
    :class:`BudgetError` when the term-count or degree product is too large
    to expand symbolically."""
    if f.nvars != q.dim or g.nvars != q.dim:
        raise ValueError("variable-count mismatch")
    _check_bracket_budget(_shape(f), _shape(g))
    return _bracket_along(f, _hamiltonian(q, g, _variables(f)))


def verify_central(q: LieAlgebra, f: Poly, coords=None) -> bool:
    """True iff {x_i, f} = 0 symbolically for every coordinate index i in
    ``coords``; by default on the Lie generating set ``q.generating_set``.

    The default is exact: by the Jacobi identity in S(q),
    ``{x_[a,b], f} = {x_a, {x_b, f}} - {x_b, {x_a, f}}``, so the x with
    {x, f} = 0 form a Lie subalgebra of q, and one that contains a
    generating set is all of q.  An explicit ``coords`` checks exactly
    those coordinates (``grading.odd_idx`` spans an abelian ideal and
    generates only itself)."""
    coords = q.generating_set if coords is None else coords
    # {x_i, d f} = d {x_i, f}: clearing denominators keeps the verdict and
    # runs the brackets on integers
    d = lcm(1, *(c.denominator for c in f.terms.values()))
    if d != 1:
        f = Poly(f.nvars, {e: int(c * d) for e, c in f.terms.items()})
    return all(bracket_with_coordinate(q, i, f).is_zero() for i in coords)


def shift(f: Poly, xi) -> list[Poly]:
    """The argument-shift components f_xi^j for j = 0..deg(f)-1.

    These are the coefficients of a^j in f(mu + a*xi); the top coefficient
    j = deg(f) is a constant and is discarded.  Raises :class:`BudgetError`
    before expanding when the expansion would create more than
    ``TERM_BUDGET`` terms: a term with exponents e creates
    prod (e_i + 1) over the i with e_i > 0 and xi_i != 0.
    """
    if f.is_zero():
        raise ValueError("shift of the zero polynomial")
    created = sum(prod(e + 1 for e, x in zip(exps, xi) if e and x)
                  for exps in f.terms)
    if created > TERM_BUDGET:
        raise BudgetError(
            f"shift expansion of {created} terms exceeds the budget")
    comps = f.shift_components(xi)
    return comps[: f.degree()] if f.degree() >= 1 else comps[:1]


class ShiftFamily:
    """All shift components of a generating set in a fixed direction, as
    ``(generator position, power of the shift, component)``."""

    def __init__(self):
        self.components: list[tuple[int, int, Poly]] = []

    def polys(self) -> list[Poly]:
        return [p for _, _, p in self.components]


def mf_family(q: LieAlgebra, gens: list[Poly], xi) -> ShiftFamily:
    """Shift family of Poisson-central generators in direction xi.

    Every generator is first verified to be central (``verify_central`` on
    the generating set: one coordinate bracket per generator and member).
    """
    for g in gens:
        if not verify_central(q, g):
            raise ValueError(f"generator {g.to_text(q.labels)} is not central")
    fam = ShiftFamily()
    for gi, g in enumerate(gens):
        comps = shift(g, xi)
        for j, p in enumerate(comps):
            if not p.is_zero():
                fam.components.append((gi, j, p))
    return fam


def pairwise_commuting(q: LieAlgebra, polys: list[Poly]):
    """(True, None) if all brackets vanish symbolically, else a witness
    (False, (i, j, {p_i, p_j})) for the lexicographically first failing pair.

    Every pair is checked against the bracket budgets before any bracket is
    taken.  The Hamiltonian vector of p_i is built once, and each later
    bracket is ``{p_i, p_j} = -sum_k d_k p_j * X_{p_i}^k``.
    """
    if any(p.nvars != q.dim for p in polys):
        raise ValueError("variable-count mismatch")
    shapes = [_shape(p) for p in polys]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            _check_bracket_budget(shapes[i], shapes[j])
    later_vars, seen = [set() for _ in polys], set()
    for i in reversed(range(len(polys))):
        later_vars[i] = set(seen)
        seen |= _variables(polys[i])
    for i in range(len(polys) - 1):
        ham = _hamiltonian(q, polys[i], sorted(later_vars[i]))
        for j in range(i + 1, len(polys)):
            br = _bracket_along(polys[j], ham)
            if br:
                return False, (i, j, -br)
    return True, None


def jacobian_rank_at(polys: list[Poly], mu) -> int:
    return linalg.rank([dict(enumerate(p.grad_at(mu))) for p in polys])


def trdeg_lower_bound(polys: list[Poly], points,
                      stop: int | None = None) -> tuple[int, list | None]:
    """Certified lower bound for the transcendence degree: the largest
    Jacobian rank over the points, with the first point that reaches it
    (None when no point gives a positive rank).  Stops once the rank is
    ``stop``, a proven upper bound for it; len(polys) by default."""
    stop = len(polys) if stop is None else stop
    best, best_point = 0, None
    for mu in points:
        r = jacobian_rank_at(polys, mu)
        if r > best:
            best, best_point = r, mu
        if best == stop:
            break
    return best, best_point


def gradients(polys: list[Poly], points):
    """``(point, rows)`` for each point, lazily: the gradients of the
    polynomials there, the samples ``certified_index`` takes from
    polynomials."""
    return ((mu, [p.grad_at(mu) for p in polys]) for mu in points)


def certified_index(q: LieAlgebra, samples):
    """(index, rank, point) from gradient rows of verified-central
    polynomials.

    ``samples`` yields ``(point, rows)``: the gradients of the polynomials
    at the point, from ``gradients`` or from any other exact producer.  The
    differentials lie in the Kirillov kernel everywhere, so their rank is a
    lower bound for the index, and the Kirillov corank at any point is an
    upper bound.  The samples are read until the rows are independent; when
    the best rank meets the corank at the point that reached it, that value
    is the index, and otherwise the elimination in ``index`` decides.
    """
    best, best_point = 0, None
    for mu, rows in samples:
        r = linalg.rank(dict(enumerate(row)) for row in rows)
        if r > best:
            best, best_point = r, mu
        if best == len(rows):
            break
    if best_point is not None and kirillov_corank(q, best_point) == best:
        return best, best, best_point
    return index(q), best, best_point
