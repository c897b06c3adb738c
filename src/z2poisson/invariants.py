"""Invariant generators: classical Casimirs of the matrix algebras, their
top components along the grading (candidate invariants of the contraction),
the abelian-ideal invariant subalgebra for pairs without black nodes, and a
graded kernel search for noncommutativity witnesses.

The tops come by one of two routes.  On a maximal-rank pair (a Cartan
subalgebra of g in g1) they are the characteristic coefficients and
Pfaffian of the generic element of g1 alone (``_odd_block_tops``); on
every other pair they are the weight-echelon tops of the classical
invariants of g (``_weight_echelon_tops``).  Either way they are
certificates only once ``verify_central`` has checked each top central in
the contraction and ``certified_index`` has met its bounds with them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q
from math import lcm

from . import linalg
from .errors import BudgetError, UnsupportedPairError
from .poisson import (bracket_with_coordinate, certified_index, pairwise_commuting,
                      trdeg_lower_bound, verify_central)
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


def _kind_generators(kind: str, x: list[list[Poly]],
                     pf_matrix=None) -> list[Poly]:
    """Generator list per classical type: degrees 2..n for sl, the even
    characteristic coefficients for sp and so, with the top so coefficient
    of even size replaced by the Pfaffian."""
    coeffs = char_coefficients(x)
    n = len(x)
    if kind == "sl":
        return [coeffs[k] for k in range(2, n + 1)]
    for k in range(1, n + 1, 2):
        if not coeffs[k].is_zero():
            raise AssertionError("odd characteristic coefficient survived")
    if kind == "sp":
        return [coeffs[k] for k in range(2, n + 1, 2)]
    top = n - 1 if n % 2 else n - 2
    gens = [coeffs[k] for k in range(2, top + 1, 2)]
    if n % 2 == 0:
        gens.append(linalg.pfaffian(pf_matrix if pf_matrix is not None else x))
    return gens


def _dual_matrices(mats) -> list[list[list[Q]]]:
    """Trace-form dual basis: tr(D_i B_j) = delta_ij.

    The generic element must be written through this identification of the
    dual space with the algebra; coordinates against the plain basis are not
    equivariant unless the basis happens to be self-dual.  The Gram matrix
    ``tr(B_i B_j) = sum_ab (B_i)_ab (B_j)_ba`` and the duals are summed over
    nonzero entries only: each position (a, b) meets its transpose (b, a).
    """
    n = len(mats)
    size = len(mats[0])
    entries = [[(a, b, x) for a, row in enumerate(m) for b, x in enumerate(row) if x]
               for m in mats]
    at: dict[tuple[int, int], list[tuple[int, Q]]] = {}
    for i, ent in enumerate(entries):
        for a, b, x in ent:
            at.setdefault((a, b), []).append((i, x))
    t = [[0] * n for _ in range(n)]
    for (a, b), here in at.items():
        for j, y in at.get((b, a), ()):
            for i, x in here:
                t[i][j] += x * y
    tinv = linalg.invert(t)
    dual = []
    for i in range(n):
        d = [[Q(0)] * size for _ in range(size)]
        for j in range(n):
            c = tinv[j][i]
            if c:
                for a, b, x in entries[j]:
                    d[a][b] += c * x
        dual.append(d)
    return dual


def _certify_equivariant(real: MatrixRealization, duals) -> None:
    """Raise ``AssertionError`` unless ``X(xi) = sum_k xi_k D_k`` is
    equivariant: ``sum_j c_ij^k D_j + [B_i, D_k] = 0`` for all i and k, with
    ``{x_i, x_j} = sum_k c_ij^k x_k`` and B_i the matrix of e_i.  Then
    ``{x_i, P(X)} = dP_X(-[B_i, X]) = 0`` for every conjugation-invariant P.
    The Pfaffian of F X is only so(F)-invariant, so every ``F B_i`` must be
    antisymmetric, with F a symmetric involution (F = I without a form); for
    ``diag_*`` every B_i must be block diagonal, so that each block's
    coefficients stay invariant."""
    mats, kind, half, f = real.matrices, real.kind, real.size, real.form
    if f is not None and (f != [list(col) for col in zip(*f)] or linalg.mat_mul(f, f)
                          != [[int(a == b) for b in range(len(f))] for a in range(len(f))]):
        raise AssertionError("form is not a symmetric involution")
    if kind in ("so", "so_split", "diag_so"):
        for m in mats if f is None else (linalg.mat_mul(f, m) for m in mats):
            if any(m[a][b] != -m[b][a] for a in range(len(m)) for b in range(a + 1)):
                raise AssertionError("basis matrix is not antisymmetric under the form")
    if kind.startswith("diag_") and any(x and (a < half) != (b < half) for m in mats
                                        for a, row in enumerate(m) for b, x in enumerate(row)):
        raise AssertionError("basis matrix leaves the diagonal blocks")
    # sparse rows of (column, value); the duals scaled to integers by den
    den = lcm(1, *(x.denominator for m in duals for row in m for x in row))
    d_rows = [[[(b, int(x * den)) for b, x in enumerate(row) if x] for row in m] for m in duals]
    b_rows = [[[(b, x) for b, x in enumerate(row) if x] for row in m] for m in mats]
    ident = [[(a, 1)] for a in range(len(mats[0]))]
    for i, row in enumerate(real.algebra.bracket_rows):
        acc = [{} for _ in duals]       # den * (sum_j c_ij^k D_j + [B_i, D_k])
        terms = [(acc[k], sign * c, ident, d_rows[j])
                 for j, sign, entry in row for k, c in entry.items()]
        for k, dk in enumerate(d_rows):
            terms += [(acc[k], 1, b_rows[i], dk), (acc[k], -1, dk, b_rows[i])]
        for out, s, left, right in terms:   # out += s * left * right
            for a, l_row in enumerate(left):
                for b, x in l_row:
                    for c, y in right[b]:
                        out[a, c] = out.get((a, c), 0) + s * x * y
        if any(v for out in acc for v in out.values()):
            raise AssertionError("generic element is not equivariant")


def classical_invariants(real: MatrixRealization | PairRealization) -> InvariantSet:
    """Free generators of the invariant algebra of the matrix algebra:
    characteristic coefficients, plus the Pfaffian for even orthogonal types.
    All generators are certified central by the linear equivariance check
    ``_certify_equivariant``; none is bracketed."""
    if isinstance(real, PairRealization):
        real = real.realization
    alg = real.algebra
    nvars = alg.dim
    mats = _dual_matrices(real.matrices)
    _certify_equivariant(real, mats)
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

    The product rows are eliminated once; each invariant's residue against
    them is zero on their pivots, so the reduced echelon form of the
    residues is exactly the part of the joint form that the products do
    not pivot (the joint pivot set is the union of the two).
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
        red, pivots = linalg.rref({column[e]: x for e, x in p.terms.items()}
                                  for p in prods)
        residues = []
        for p in group:
            row = {column[e]: x for e, x in p.terms.items()}
            for prow, c in zip(red, pivots):
                f = row.get(c)
                if f:
                    for j, x in prow.items():
                        row[j] = row.get(j, 0) - f * x
            residues.append(row)
        for row in linalg.rref(residues)[0]:
            poly = Poly(group[0].nvars, {monomials[c]: x for c, x in row.items()})
            out.append(top_component(poly, grading))
        earlier.extend(group)
    return out


def _odd_block_tops(pr: PairRealization) -> list[Poly]:
    """Top components of the classical invariants of a maximal-rank pair,
    read off the odd block alone.

    The component of odd degree d of an invariant of degree d is its
    restriction to g1, the same characteristic coefficient or Pfaffian of
    ``X1 = sum_(i odd) x_i D_i``.  When a Cartan subalgebra of g lies in g1,
    no nonzero invariant vanishes on g1 (Kostant-Rallis), so that component
    is the top one.  The trace form
    makes g0 and g1 orthogonal, so the duals ``D_i`` of the odd basis lie in
    g1 and come from the odd block of the Gram matrix.  Each generator is
    returned as a primitive integer polynomial with a positive coefficient
    at its least exponent tuple, and the list is sorted stably by degree:
    the normalization and order of ``_weight_echelon_tops``.  Nothing here
    is certified; the caller verifies every top central.
    """
    real = pr.realization
    odd = pr.grading.odd_idx
    duals = _dual_matrices([real.matrices[i] for i in odd])
    size = len(duals[0])
    x1 = _generic_matrix(duals, pr.g.dim, range(size), range(size), variables=odd)
    tops = []
    for p in _kind_generators(real.kind, x1):
        terms = linalg._primitive(p.terms)
        if terms[min(terms)] < 0:
            terms = {e: -c for e, c in terms.items()}
        tops.append(Poly(p.nvars, terms))
    return sorted(tops, key=Poly.degree)


def contraction_invariants(pr: PairRealization, seed: int = 1, trials: int = 6,
                           classical: InvariantSet | None = None) -> InvariantSet:
    """Verified central generators of the contraction's Poisson centre: the
    top components of the classical invariants of g.

    On a maximal-rank pair (``pr.maximal_rank``) they come from the odd
    block alone (``_odd_block_tops``), with no expansion over g0 and no
    reduction.  On every other pair raw tops can coincide or degenerate, and
    they are the weight-echelon tops of ``classical``, the classical
    invariants of g (built here when None); giving ``classical`` for a
    maximal-rank pair, which does not use it, is a ``ValueError``.  On both
    routes the certificate is the same: every top is verified central in
    the contraction (``verify_central``), and the index is certified from
    them below.

    The returned metadata carries a Jacobian rank certificate at a sampled
    point; ``meta['full']`` is set when the pool has full rank (one free
    generator per classical invariant, degree sum b).

    ``meta['index']`` is the index of the contraction, certified by the
    central generators at the sampled point (``certified_index``), or by
    elimination when that certificate does not close."""
    if pr.maximal_rank:
        if classical is not None:
            raise ValueError("the classical invariants of g are not used "
                             "on a maximal-rank pair")
        tops = _odd_block_tops(pr)
    else:
        inv_g = classical_invariants(pr) if classical is None else classical
        # the products run on integers: scaling each invariant keeps every
        # row span, so the reduced rows, and the tops up to scale, stay the
        # same; each top is returned as a primitive integer polynomial
        integral = [Poly(p.nvars, linalg._primitive(p.terms)) for p in inv_g.polys]
        tops = [Poly(p.nvars, linalg._primitive(p.terms))
                for p in _weight_echelon_tops(integral, pr.grading)]
    k = pr.contraction
    if not all(verify_central(k, p) for p in tops):
        raise AssertionError("top component is not central in the contraction")
    rng = random.Random(seed)
    points = (sample_covector(k.dim, rng, bound=10 ** 6) for _ in range(trials))
    ind, best_rank, best_point = certified_index(k, tops, points)
    meta = {
        "certified_rank": best_rank,
        "count": len(tops),
        "sum_degrees": sum(p.degree() for p in tops),
        "index": ind,
        "b": (k.dim + ind) // 2,          # dim - index is a skew rank: even
        "seed": seed,
        "sample_point": [str(c) for c in (best_point or [])],
        "full": best_rank == len(tops) == pr.rank_g,
    }
    return InvariantSet(k, tops, meta)


def nreg_subalgebra(pr: PairRealization, seed: int = 1) -> InvariantSet:
    """Free generators of the odd-coordinate invariant subalgebra for pairs
    whose diagram has no black nodes: the odd coordinate functions plus
    arrow-many central polynomials chosen greedily for Jacobian rank b(k).
    They commute without a bracket: each is an odd coordinate, and g1 is an
    abelian ideal of k, or a top that ``contraction_invariants`` has just
    verified central."""
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

    def rank_of(polys: list[Poly]) -> int:
        return trdeg_lower_bound(polys, points)[0]

    selected = list(coords)
    current = rank_of(selected)
    for cand in sorted(pool.polys, key=lambda p: p.degree()):
        if current >= target:
            break
        trial = selected + [cand]
        r = rank_of(trial)
        if r > current:
            selected, current = trial, r
    if current != target or len(selected) != len(coords) + m:
        raise UnsupportedPairError(
            f"invariant pool is insufficient for {pr.pair}: achieved rank "
            f"{current} with {len(selected)} generators, want rank {target} "
            f"with {len(coords) + m}")
    # g1 is an abelian ideal of k and every pool member is verified
    # central, so the selected generators commute with no bracket taken
    if not all(any(p is q for q in coords + pool.polys) for p in selected):
        raise AssertionError("a selected generator is neither an odd "
                             "coordinate nor a central top")
    return InvariantSet(k, selected, meta={"certified_rank": current, "m": m,
                                           "b": target, "commuting": True,
                                           "seed": seed, "count": len(selected)})


def _monomials(nvars: int, degree: int):
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        yield tuple(e)


def noncommutativity_witness(pr: PairRealization, degree_bound: int = 2,
                             max_dim: int = 40):
    """Searches the odd-coordinate invariants up to the degree bound for a
    pair with a nonzero mutual bracket.

    Returns (f, g, bracket) or None when the search is inconclusive within
    the bound.  Each graded piece is the exact kernel of the stacked
    bracket-with-odd-coordinates map.  The candidates are bracketed by
    ``pairwise_commuting``, so (f, g) is the lexicographically first
    noncommuting pair, and every pair is checked against the bracket
    budgets before any bracket is taken.  When no candidate has an even
    variable they all commute, since g1 is an abelian ideal of k, and None
    is returned with no bracket taken.
    """
    k = pr.contraction
    if k.dim > max_dim:
        raise BudgetError(f"dimension {k.dim} exceeds the witness search cap")
    odd = list(pr.grading.odd_idx)
    candidates: list[Poly] = []
    for d in range(1, degree_bound + 1):
        monos = list(_monomials(k.dim, d))
        row_index: dict[tuple[int, tuple], int] = {}
        mat_rows: list[dict[int, Q]] = []
        for e_i in odd:
            for c, mono in enumerate(monos):
                br = bracket_with_coordinate(k, e_i, Poly(k.dim, {mono: 1}))
                for out_e, coeff in br.terms.items():
                    key = (e_i, out_e)
                    if key not in row_index:
                        row_index[key] = len(mat_rows)
                        mat_rows.append({})
                    mat_rows[row_index[key]][c] = coeff
        for kv in linalg.kernel(mat_rows, range(len(monos))):
            candidates.append(Poly(k.dim, {monos[c]: x for c, x in kv.items()}))
    # g1 is an abelian ideal of k: polynomials in the odd coordinates commute
    even = pr.grading.even_idx
    if not any(e[i] for p in candidates for e in p.terms for i in even):
        return None
    ok, witness = pairwise_commuting(k, candidates)
    if ok:
        return None
    i, j, br = witness
    return candidates[i], candidates[j], br
