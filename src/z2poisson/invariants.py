"""Invariant generators: classical Casimirs of the matrix algebras, their
top components along the grading (candidate invariants of the contraction),
the abelian-ideal invariant subalgebra for pairs without black nodes, and a
graded kernel search for noncommutativity witnesses.

The ``summary`` suite reads the tops as gradient rows at one integer point,
with no polynomial built (``PointwiseInvariants``), on every pair of kind
sl, sp or so that is of maximal rank or whose matrix positions split into
two classes.  As polynomials, for ``nonmax``, ``nreg`` and the other
pairs, the tops come by one of two routes.  On a maximal-rank pair (a
Cartan subalgebra of g in g1) they are the characteristic coefficients and
Pfaffian of the generic element of g1 alone (``_odd_block_tops``); on every
other pair they are the weight-echelon tops of the classical invariants of
g (``_weight_echelon_tops``).  Every route builds on the certified duals
of the realization (``MatrixRealization.duals``), so every invariant is one
of g and every top is central in the contraction, with no bracket taken;
the tops certify the index once ``certified_index`` has met its bounds
with them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q
from math import isqrt, lcm

from . import linalg
from .errors import BudgetError, UnsupportedPairError
# verify_central is not called here: the traced benchmark wraps it by this name
from .poisson import (bracket_with_coordinate, certified_index, gradients,
                      pairwise_commuting, verify_central)  # noqa: F401
from .poly import Poly, coeff_num
from .structure import (LieAlgebra, MatrixRealization, PairRealization, Z2Grading,
                        sample_covector)


class InvariantSet:
    """Polynomials on an algebra's dual; ``meta`` holds the facts reported
    beside them."""

    def __init__(self, algebra: LieAlgebra, polys: list[Poly], meta: dict):
        self.algebra = algebra
        self.polys = polys
        self.meta = meta


# ----------------------------------------------------------------------
# symbolic characteristic coefficients
# ----------------------------------------------------------------------

def _generic_matrix(mats, nvars: int, rows: range, cols: range,
                    variables=None) -> list[list[Poly]]:
    """X = sum_i x_i M_i restricted to a block, with polynomial entries; the
    variable of ``mats[i]`` is ``variables[i]``, by default i."""
    out = [[Poly.zero(nvars) for _ in cols] for _ in rows]
    for t, m in zip(range(len(mats)) if variables is None else variables, mats):
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                if m[i][j] != 0:
                    out[a][b] = out[a][b] + Poly.var(nvars, t, m[i][j])
    return out


def char_coefficients(x: list[list[Poly]]) -> dict[int, Poly]:
    """Elementary symmetric functions e_k of the eigenvalues of X, k = 1..n.

    With d the lcm of the coefficient denominators of X, the expansion runs
    on the integer matrix dX: ``det(dX + tI) = sum_k d^k e_k t^(n-k)``, with
    t one extra variable, and each coefficient is divided by d^k at the end.
    """
    n = len(x)
    nvars = x[0][0].nvars
    d = lcm(1, *(c.denominator for row in x for f in row for c in f.terms.values()))
    xt = [[Poly(nvars + 1, {e + (0,): int(c * d) for e, c in f.terms.items()})
           for f in row] for row in x]
    for a in range(n):
        xt[a][a] = xt[a][a] + Poly.var(nvars + 1, nvars)
    out = {k: Poly.zero(nvars) for k in range(1, n + 1)}
    for e, c in linalg.poly_det(xt).terms.items():
        if e[-1] < n:
            k = n - e[-1]
            out[k].terms[e[:-1]] = coeff_num(Q(c, d ** k))
    return out


def _generator_degrees(kind: str, n: int) -> list[tuple[int, bool]]:
    """``(degree, is_pfaffian)`` per generator of an n x n matrix algebra of
    the type: e_2..e_n for sl, the even e_k for sp and so, with the top so
    coefficient of even size replaced by the Pfaffian (degree n/2)."""
    if kind == "sl":
        return [(k, False) for k in range(2, n + 1)]
    if kind == "sp":
        return [(k, False) for k in range(2, n + 1, 2)]
    if n % 2:
        return [(k, False) for k in range(2, n, 2)]
    return [(k, False) for k in range(2, n - 1, 2)] + [(n // 2, True)]


def _kind_generators(kind: str, x: list[list[Poly]],
                     pf_matrix=None) -> list[Poly]:
    """The generators of ``_generator_degrees``, from the characteristic
    coefficients of X and the Pfaffian of ``pf_matrix`` (X by default)."""
    coeffs = char_coefficients(x)
    n = len(x)
    if kind != "sl" and any(not coeffs[k].is_zero() for k in range(1, n + 1, 2)):
        raise AssertionError("odd characteristic coefficient survived")
    return [linalg.pfaffian(x if pf_matrix is None else pf_matrix) if pf else coeffs[k]
            for k, pf in _generator_degrees(kind, n)]


def classical_invariants(real: MatrixRealization | PairRealization) -> InvariantSet:
    """Free generators of the invariant algebra of the matrix algebra:
    characteristic coefficients, plus the Pfaffian for even orthogonal types,
    of the generic element over the certified duals ``real.duals``.  They are
    central by that certificate; none is bracketed."""
    if isinstance(real, PairRealization):
        real = real.realization
    alg = real.algebra
    nvars = alg.dim
    mats = real.duals
    size = len(mats[0])
    kind = real.kind
    if kind.startswith("diag_"):
        base = kind[5:]
        half = real.size
        x1 = _generic_matrix(mats, nvars, range(half), range(half))
        x2 = _generic_matrix(mats, nvars, range(half, 2 * half),
                             range(half, 2 * half))
        polys = _kind_generators(base, x1) + _kind_generators(base, x2)
    elif kind == "so_split":
        # X itself is not antisymmetric, but form*X is; the Pfaffian lives there
        fmats = [linalg.mat_mul(real.form, m) for m in mats]
        x = _generic_matrix(mats, nvars, range(size), range(size))
        fx = _generic_matrix(fmats, nvars, range(size), range(size))
        polys = _kind_generators("so", x, pf_matrix=fx)
    else:
        x = _generic_matrix(mats, nvars, range(size), range(size))
        polys = _kind_generators(kind, x)

    return InvariantSet(alg, polys, meta={})


# ----------------------------------------------------------------------
# gradient rows at a point, with no polynomial built
# ----------------------------------------------------------------------

def _position_classes(mats, odd) -> tuple[int, int] | None:
    """Sizes of a split of the matrix positions into two classes with every
    even basis matrix inside the classes and every odd one across them, or
    None when the supports admit none; a position no matrix touches joins
    the first class.

    The trace-form duals then split the same way: ``tr(B_i B_j) = 0`` for
    even i and odd j, since no position (a, b) inside the classes has its
    transpose across them, so the Gram matrix keeps parity and each dual is
    a combination of basis matrices of its own parity."""
    n = len(mats[0])
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, m in enumerate(mats):
        across = int(i in odd)
        for a, row in enumerate(m):
            for b, x in enumerate(row):
                if x:
                    links[a].append((b, across))
                    links[b].append((a, across))
    side: list[int | None] = [None] * n
    for root in range(n):
        if side[root] is not None:
            continue
        side[root], stack = 0, [root]
        while stack:
            a = stack.pop()
            for b, across in links[a]:
                if side[b] is None:
                    side[b] = side[a] ^ across
                    stack.append(b)
                elif side[b] != side[a] ^ across:
                    return None
    first = side.count(0)
    return first, n - first


def _poly_sqrt(c: list[int]) -> list | None:
    """The polynomial r with r^2 = c and a positive leading coefficient
    (coefficient lists, lowest power first), or None for c = 0; raises
    ``AssertionError`` when c is not a square."""
    while c and not c[-1]:
        c = c[:-1]
    if not c:
        return None
    h, rem = divmod(len(c) - 1, 2)
    lead = isqrt(c[-1]) if c[-1] > 0 else 0
    if rem or lead * lead != c[-1]:
        raise AssertionError("determinant is not a square")
    r = [0] * h + [lead]
    for m in range(1, h + 1):
        # the coefficient of s^(2h-m) in r^2 holds 2 r_h r_(h-m) once
        acc = c[2 * h - m] - sum(r[i] * r[2 * h - m - i] for i in range(h - m + 1, h))
        r[h - m] = coeff_num(Q(acc, 2 * lead))
    if _exact_quotient(c, r) != r:      # or the division is inexact
        raise AssertionError("determinant is not a square")
    return r


def _exact_quotient(num: list, den: list) -> list:
    """num / den for coefficient lists (lowest power first) when den divides
    num exactly; den has a nonzero leading coefficient."""
    num = list(num)
    d = len(den) - 1
    out = [0] * max(0, len(num) - d)
    for j in reversed(range(len(out))):
        c = out[j] = coeff_num(Q(num[j + d], den[d]))
        if c:
            for t, y in enumerate(den):
                num[j + t] -= c * y
    if any(num):
        raise AssertionError("inexact division")
    return out


class PointwiseInvariants:
    """Gradient rows, at integer points, of the classical invariants of g
    and of their top components along the grading; no polynomial is built.

    At a point xi = (xi0, xi1), with X0 and X1 the even and odd parts of the
    generic element X = sum_i xi_i D_i (the trace-form duals, scaled to
    integers), ``X(s) = X0 + s X1`` has entries in Z[s].  The
    Faddeev-LeVerrier recursion ``M_1 = I, e_k = tr(X M_k)/k,
    M_(k+1) = e_k I - X M_k`` gives ``d e_k(H) = tr(M_k H)``, so the
    gradient of ``e_k(X0 + s X1)`` in the direction of a coordinate is
    ``tr(M_k D_i)``, times s for an odd coordinate.  The component of odd
    degree w of e_k is the coefficient of s^w, and its gradient row takes
    the s^w coefficient of ``tr(M_k D_i)`` on even columns and the s^(w-1)
    one on odd columns.  The Pfaffian's come from ``d e_n = 2 Pf dPf``,
    with ``Pf(X(s))`` the square root of ``e_n(X(s)) = det X(s)``, divided
    exactly in Q[s].  Every row is a nonzero multiple of the exact one,
    which is all a rank needs.  At s = 1 the full gradients are the rows
    of the invariants of g themselves (``rows``).

    ``widths`` holds the top odd degree W of each generator, exact by a
    certificate: k on a maximal-rank pair, where the top of ``e_k(X)`` is
    ``e_k(X1)`` (``_odd_block_tops``); otherwise at most
    ``2 min(|A|, |B|, k // 2)`` for e_k and ``min(|A|, |B|)`` for the
    Pfaffian, with A and B the position classes of ``_position_classes``,
    which the duals respect:
    a term of a principal k-minor crosses from A to B as often as back, at
    most ``min(|S & A|, |S & B|)`` times, and a Pfaffian matching pairs at
    most ``min(|A|, |B|)`` positions across.  A nonzero row at that bound
    proves the component there is the top (``top_rows``).
    """

    def __init__(self, pr: PairRealization, widths: list[int]):
        self.pr = pr
        duals = pr.realization.duals
        den = lcm(1, *(x.denominator for m in duals for row in m for x in row))
        self.entries = [[(a, b, int(x * den)) for a, row in enumerate(m)
                         for b, x in enumerate(row) if x] for m in duals]
        self.odd = frozenset(pr.grading.odd_idx)
        self.gens = _generator_degrees(pr.realization.kind, pr.realization.size)
        self.widths = widths

    def _traces(self, xi) -> list[list[list]]:
        """``tr(M_k D_i)`` as coefficient lists in s, lowest power first, for
        each generator and coordinate i; the Pfaffian's entries are
        ``tr(M_n D_i) / Pf = 2 dPf`` (empty when ``Pf(X(s)) = 0``)."""
        n = self.pr.realization.size
        x0 = [[0] * n for _ in range(n)]
        x1 = [[0] * n for _ in range(n)]
        for i, d in enumerate(self.entries):
            if xi[i]:
                x = x1 if i in self.odd else x0
                for a, b, v in d:
                    x[a][b] += xi[i] * v
        need = {n if pf else k for k, pf in self.gens}
        last = max(need)
        pfaffian = self.gens[-1][1]         # the Pfaffian comes last
        m = [[[int(a == b) for b in range(n)] for a in range(n)]]   # M_1, by powers of s
        traces, e = {}, []
        for k in range(1, last + 1):
            if k in need:
                traces[k] = [[sum([v * mj[b][a] for a, b, v in d], 0) for mj in m]
                             for d in self.entries]
            if k == last and not pfaffian:
                break
            xm = [linalg.mat_mul(x0, mj) for mj in m] + [[[0] * n for _ in range(n)]]
            for j, mj in enumerate(m):
                xm[j + 1] = [[u + w for u, w in zip(r, t)]
                             for r, t in zip(xm[j + 1], linalg.mat_mul(x1, mj))]
            e = [sum(p[a][a] for a in range(n)) // k for p in xm]   # exact
            if k == last:
                break
            m = [[[-v for v in row] for row in p] for p in xm]
            for j, c in enumerate(e):
                for a in range(n):
                    m[j][a][a] += c
        out = [traces[k] for k, pf in self.gens if not pf]
        if pfaffian:
            pf = _poly_sqrt(e)          # e = e_n(X(s)) = det X(s) = Pf^2
            out.append([_exact_quotient(t, pf) if pf else [] for t in traces[n]])
        return out

    def rows(self, xi) -> list[list]:
        """The gradient rows of the generators of g at xi."""
        return [[sum(t) for t in gen] for gen in self._traces(xi)]

    def top_rows(self, xi) -> list[list]:
        """The gradient rows of the generators' tops at xi, each read at its
        width: a zero row means the width is not proven."""
        return [[t[w - (i in self.odd)] if 0 <= w - (i in self.odd) < len(t) else 0
                 for i, t in enumerate(gen)]
                for gen, w in zip(self._traces(xi), self.widths)]

    def certify_contraction(self, seed: int = 1) -> dict | None:
        """The metadata of ``contraction_invariants`` from the tops' rows at
        its first sampled point, or None when they are not independent there:
        the caller then takes the symbolic route.  Independent rows are
        nonzero, so each width is proven; the tops are central by the
        certificate of the duals, with no bracket."""
        k = self.pr.contraction
        point = sample_covector(k.dim, random.Random(seed), bound=10 ** 6)
        rows = self.top_rows(point)
        if linalg.rank(dict(enumerate(r)) for r in rows) < len(rows):
            return None
        return _pool_meta(self.pr, [d for d, _ in self.gens],
                          certified_index(k, [(point, rows)]), seed)


def pointwise_invariants(pr: PairRealization) -> PointwiseInvariants | None:
    """The pointwise rows of a pair of kind sl, sp or so, with the widths of
    its tops certified: by ``pr.maximal_rank`` or by a split of the matrix
    positions (``_position_classes``).  None for other kinds and when no
    split exists.  The rows are read over the certified duals, so each is
    that of an invariant of g or of a top of one, central in k."""
    real = pr.realization
    if real.kind not in ("sl", "sp", "so"):
        return None
    gens = _generator_degrees(real.kind, real.size)
    if pr.maximal_rank:
        widths = [k for k, _ in gens]
    else:
        classes = _position_classes(real.matrices, set(pr.grading.odd_idx))
        if classes is None:
            return None
        narrow = min(classes)
        widths = [narrow if pf else 2 * min(narrow, k // 2) for k, pf in gens]
    return PointwiseInvariants(pr, widths)


# ----------------------------------------------------------------------
# top components and the contraction invariant pool
# ----------------------------------------------------------------------

def top_component(f: Poly, grading: Z2Grading) -> Poly:
    """The sum of terms of maximal total degree in the odd coordinates; a
    candidate invariant of the contraction, returned unverified."""
    if f.is_zero():
        raise ValueError("top component of the zero polynomial")
    if not f.is_homogeneous():
        raise ValueError("top component needs a homogeneous input")
    odd = set(grading.odd_idx)
    w = f.weighted_degree(odd)
    return f.weight_component(odd, w)


def _products_of_degree(gens: list[Poly], d: int) -> list[Poly]:
    """All products of at least two of the given polynomials with total
    degree exactly d (repetition allowed)."""
    out: list[Poly] = []

    def rec(i: int, remaining: int, acc: list[Poly]):
        if remaining == 0:
            if len(acc) >= 2:
                prod = acc[0]
                for p in acc[1:]:
                    prod = prod * p
                out.append(prod)
            return
        if i >= len(gens):
            return
        rec(i + 1, remaining, acc)
        dd = gens[i].degree()
        if 0 < dd <= remaining:
            rec(i, remaining - dd, acc + [gens[i]])

    rec(0, d, [])
    return out


def _weight_echelon_tops(polys: list[Poly], grading: Z2Grading) -> list[Poly]:
    """Top components of the invariants after weight-graded reduction.

    Each invariant is reduced modulo the span of products of lower-degree
    invariants and modulo its degree-mates, with monomials ordered by
    descending odd-weight.  Raw top components can coincide (the diagonal
    pairs) or degenerate into powers of lower tops (the quaternionic pairs);
    the reduction exposes one genuinely new top per generator.

    The product rows are eliminated once, as primitive integer rows
    (``linalg._echelon``); each invariant's residue against them
    (``linalg._reduced``, a nonzero multiple of the rational residue) is
    zero on their pivots, so the reduced echelon form of the residues is
    exactly the part of the joint form that the products do not pivot (the
    joint pivot set is the union of the two).  A residue row's pivot is its
    monomial of largest odd weight, so its top component divided by the
    pivot entry is the top of the rational reduced row; only those terms
    become Fractions.
    """
    odd = set(grading.odd_idx)
    by_degree: dict[int, list[Poly]] = {}
    for p in polys:
        by_degree.setdefault(p.degree(), []).append(p)
    out: list[Poly] = []
    earlier: list[Poly] = []
    for d in sorted(by_degree):
        group = by_degree[d]
        prods = _products_of_degree(earlier, d)
        monomials = sorted({e for p in prods + group for e in p.terms},
                           key=lambda e: (-sum(e[i] for i in odd), e))
        column = {e: c for c, e in enumerate(monomials)}
        red, pivots = linalg._echelon({column[e]: x for e, x in p.terms.items()}
                                      for p in prods)
        residues = [linalg._reduced({column[e]: x for e, x in p.terms.items()}, red, pivots)
                    for p in group]
        for row, c in zip(*linalg._echelon(residues)):
            row_poly = Poly(group[0].nvars, {monomials[j]: x for j, x in row.items()})
            top = top_component(row_poly, grading)
            out.append(Poly(top.nvars, {e: Q(x, row[c]) for e, x in top.terms.items()}))
        earlier.extend(group)
    return out


def _odd_block_tops(pr: PairRealization) -> list[Poly]:
    """Top components of the classical invariants of a maximal-rank pair,
    read off the odd block alone.

    The component of odd degree d of an invariant of degree d is its
    restriction to g1, the same characteristic coefficient or Pfaffian of
    ``X1 = sum_(i odd) x_i D_i``.  When a Cartan subalgebra of g lies in g1,
    no nonzero invariant vanishes on g1 (Kostant-Rallis), so that component
    is the top one.  The D_i are the odd entries of the certified duals: the
    trace form makes g0 and g1 orthogonal, so they lie in g1.  Each
    generator is returned as a primitive integer polynomial with a positive
    coefficient at its least exponent tuple, and the list is sorted stably by
    degree: the normalization and order of ``_weight_echelon_tops``.
    """
    real = pr.realization
    odd = pr.grading.odd_idx
    duals = [real.duals[i] for i in odd]
    size = len(duals[0])
    x1 = _generic_matrix(duals, pr.g.dim, range(size), range(size), variables=odd)
    tops = []
    for p in _kind_generators(real.kind, x1):
        terms = linalg._primitive(p.terms)
        if terms[min(terms)] < 0:
            terms = {e: -c for e, c in terms.items()}
        tops.append(Poly(p.nvars, terms))
    return sorted(tops, key=Poly.degree)


def contraction_invariants(pr: PairRealization, seed: int = 1,
                           trials: int = 6) -> InvariantSet:
    """Central generators of the contraction's Poisson centre: the top
    components of the classical invariants of g, as polynomials, for the
    suites that need them (``nonmax``, ``nreg``) and for the pairs that
    ``PointwiseInvariants.certify_contraction`` leaves to this route; its
    metadata has the same keys.

    On a maximal-rank pair (``pr.maximal_rank``) they come from the odd
    block alone (``_odd_block_tops``), with no expansion over g0 and no
    reduction.  On every other pair raw tops can coincide or degenerate, and
    they are the weight-echelon tops of the classical invariants of g.  On
    both routes every top is the top component of an invariant of g built
    on the certified duals (``MatrixRealization.duals``), so it is central
    with no bracket taken.

    ``meta['index']`` is the index of the contraction, certified by the
    gradients of the tops at the sampled points (``certified_index``), or
    by elimination when that certificate does not close; ``meta['full']``
    is set when the pool has full rank (one free generator per classical
    invariant, degree sum b)."""
    if pr.maximal_rank:
        tops = _odd_block_tops(pr)
    else:
        # the products run on integers: scaling each invariant keeps every
        # row span, so the reduced rows, and the tops up to scale, stay the
        # same; each top is returned as a primitive integer polynomial
        integral = [Poly(p.nvars, linalg._primitive(p.terms))
                    for p in classical_invariants(pr).polys]
        tops = [Poly(p.nvars, linalg._primitive(p.terms))
                for p in _weight_echelon_tops(integral, pr.grading)]
    k = pr.contraction
    rng = random.Random(seed)
    points = (sample_covector(k.dim, rng, bound=10 ** 6) for _ in range(trials))
    meta = _pool_meta(pr, [p.degree() for p in tops],
                      certified_index(k, gradients(tops, points)), seed)
    return InvariantSet(k, tops, meta)


def _pool_meta(pr: PairRealization, degrees: list[int], certificate, seed: int) -> dict:
    """The facts reported beside a central generator pool with these
    degrees, from its index certificate ``(index, rank, point)``."""
    ind, best_rank, best_point = certificate
    return {
        "certified_rank": best_rank,
        "count": len(degrees),
        "sum_degrees": sum(degrees),
        "index": ind,
        "b": (pr.contraction.dim + ind) // 2,     # dim - index is a skew rank: even
        "seed": seed,
        "sample_point": [str(c) for c in (best_point or [])],
        "full": best_rank == len(degrees) == pr.rank_g,
    }


def nreg_subalgebra(pr: PairRealization, seed: int = 1) -> InvariantSet:
    """Free generators of the odd-coordinate invariant subalgebra for pairs
    whose diagram has no black nodes: the odd coordinate functions plus
    arrow-many central tops chosen greedily for Jacobian rank b(k).

    The odd coordinates have unit gradient rows, so at a point a top adds
    rank exactly when its gradient on the even columns leaves the span of
    the tops picked before it: one reduction against their integer echelon
    (``linalg._reduced``) per sampled point decides, and the rank is the
    largest over the points.  The generators commute with no bracket taken:
    each is an odd coordinate, and g1 is an abelian ideal of k, or a top of
    ``contraction_invariants``, central by the certificate of the duals."""
    if not pr.satake.is_n_regular():
        raise UnsupportedPairError(
            f"{pr.pair} is not regular at the nilpotent level: "
            "its diagram has black nodes")
    k = pr.contraction
    coords = [Poly.var(k.dim, i) for i in pr.grading.odd_idx]
    pool = contraction_invariants(pr, seed=seed)
    target = pool.meta["b"]
    m = len(pr.satake.arrows)
    rng = random.Random(seed)
    points = [sample_covector(k.dim, rng, bound=10 ** 6) for _ in range(4)]
    even = pr.grading.even_idx
    echelons = [([], []) for _ in points]   # per point: picked even rows, pivots
    selected, current = list(coords), len(coords)
    for cand in sorted(pool.polys, key=lambda p: p.degree()):
        if current >= target:
            break
        residues = [linalg._reduced({i: grad[i] for i in even}, done, pivots)
                    for grad, (done, pivots)
                    in zip((cand.grad_at(mu) for mu in points), echelons)]
        r = len(coords) + max(len(pivots) + bool(res)
                              for res, (_, pivots) in zip(residues, echelons))
        if r > current:
            selected.append(cand)
            current = r
            for res, (done, pivots) in zip(residues, echelons):
                if res:
                    done.append(res)
                    pivots.append(min(res))
    if current != target or len(selected) != len(coords) + m:
        raise UnsupportedPairError(
            f"invariant pool is insufficient for {pr.pair}: achieved rank "
            f"{current} with {len(selected)} generators, want rank {target} "
            f"with {len(coords) + m}")
    return InvariantSet(k, selected, meta={"certified_rank": current, "m": m,
                                           "b": target, "commuting": True,
                                           "seed": seed, "count": len(selected)})


def _monomials(nvars: int, degree: int):
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        yield tuple(e)


WITNESS_DIM_CAP = 40        # dim k above which no witness is searched for


def _check_witness_cap(k: LieAlgebra, max_dim: int = WITNESS_DIM_CAP) -> None:
    if k.dim > max_dim:
        raise BudgetError(f"dimension {k.dim} exceeds the witness search cap")


def noncommutativity_witness(pr: PairRealization, degree_bound: int = 2,
                             max_dim: int = WITNESS_DIM_CAP):
    """Searches the odd-coordinate invariants up to the degree bound for a
    pair with a nonzero mutual bracket.

    Returns (f, g, bracket) or None when the search is inconclusive within
    the bound.  Each graded piece is the exact kernel of the stacked
    bracket-with-odd-coordinates map.  The candidates are bracketed by
    ``pairwise_commuting``, so (f, g) is the lexicographically first
    noncommuting pair, and every pair is checked against the bracket
    budgets before any bracket is taken.  Since g1 is an abelian ideal of
    k, an odd-only monomial brackets to zero with every odd coordinate, so
    the map is built on the other monomials only; and when no kernel vector
    has a monomial with an even variable in its support, the candidates all
    commute, and None is returned with no candidate built and no bracket
    taken.
    """
    k = pr.contraction
    _check_witness_cap(k, max_dim)
    odd, even = pr.grading.odd_idx, pr.grading.even_idx
    kernels = []
    for d in range(1, degree_bound + 1):
        monos = list(_monomials(k.dim, d))
        # {x_i, x^e} = 0 for odd i and odd-only e: g1 is an abelian ideal of k
        mixed = [(c, mono) for c, mono in enumerate(monos) if any(mono[i] for i in even)]
        row_index: dict[tuple[int, tuple], int] = {}
        mat_rows: list[dict[int, Q]] = []
        for e_i in odd:
            for c, mono in mixed:
                br = bracket_with_coordinate(k, e_i, Poly(k.dim, {mono: 1}))
                for out_e, coeff in br.terms.items():
                    key = (e_i, out_e)
                    if key not in row_index:
                        row_index[key] = len(mat_rows)
                        mat_rows.append({})
                    mat_rows[row_index[key]][c] = coeff
        kernels.append((monos, linalg.kernel(mat_rows, range(len(monos)))))
    # polynomials in the odd coordinates commute, for the same reason
    if not any(monos[c][i] for monos, vectors in kernels for kv in vectors
               for c in kv for i in even):
        return None
    candidates = [Poly(k.dim, {monos[c]: x for c, x in kv.items()})
                  for monos, vectors in kernels for kv in vectors]
    ok, witness = pairwise_commuting(k, candidates)
    if ok:
        return None
    i, j, br = witness
    return candidates[i], candidates[j], br
