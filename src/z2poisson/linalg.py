"""Exact linear algebra over the rationals and over polynomial rings.

Rational matrices are lists of ``{column: value}`` rows: zero entries may
be left out, and columns need not be contiguous, so a row can stay keyed by
positions in a larger space.  Gauss-Jordan elimination runs fraction-free on
primitive integer rows (each a nonzero multiple of its rational row, with
content 1) and touches only the support of each pivot row; values become
Fractions once, at the end.  The reduced row echelon form is unique, so
this returns exactly the rows and pivots a dense elimination would; kernel
vectors come back keyed by column.  The rank of a matrix with polynomial
entries comes from fraction-free (Bareiss) elimination with full pivoting:
every intermediate entry is a minor of the input, divisions are exact, and
the pivot count is the rank over the rational function field.  Determinants
and Pfaffians of polynomial matrices are Laplace expansions memoized over
the columns or indices already used.  Kernels of polynomial matrices are
assembled from Cramer-style maximal minors, which keeps every entry a
polynomial of bounded degree.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction as Q
from math import gcd, lcm

from .errors import BudgetError
from .poly import TERM_BUDGET, Poly

Mat = list[list[Q]]
Row = dict[int, Q]


# ----------------------------------------------------------------------
# rational matrices
# ----------------------------------------------------------------------

def _primitive(row: Mapping[int, Q]) -> dict[int, int]:
    """The nonzero entries of a rational row scaled to integers with content
    1: times the lcm of the denominators, divided by the gcd of the
    numerators.  A value that is neither ``int`` nor ``Fraction`` goes
    through ``Fraction`` first; a row of ``int`` values is only divided."""
    if all(type(x) is int for x in row.values()):
        ints = {j: x for j, x in row.items() if x}
    else:
        vals = [(j, x if isinstance(x, (int, Q)) else Q(x)) for j, x in row.items()]
        vals = [(j, x) for j, x in vals if x]
        d = lcm(1, *(x.denominator for _, x in vals))
        ints = {j: x.numerator * (d // x.denominator) for j, x in vals}
    g = gcd(*ints.values())
    return ints if g == 1 else {j: v // g for j, v in ints.items()}


def _echelon(rows: Iterable[Mapping[int, Q]]) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row echelon form of ``{column: value}`` rows, as primitive
    integer rows.

    Zero entries are dropped and the input is not mutated.  Each row is
    held as a primitive integer row (:func:`_primitive`), a nonzero
    multiple of the rational row, so supports and pivots are those of
    Fraction elimination.  The pivot for each column, in increasing column
    order, is the sparsest candidate row, which keeps fill-in low and does
    not change the (unique) result.  A row with entry f at the pivot column
    becomes ``(a/g) row - (f/g) prow``, where a is the pivot entry and
    ``g = gcd(a, f)``, and is divided by its content again
    (:func:`_eliminate`).  Returns only the pivot rows, in pivot order, and
    the pivot columns.
    """
    pending = [r for r in map(_primitive, rows) if r]
    done: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in sorted({j for row in pending for j in row}):
        if not pending:
            break
        hits = [i for i, row in enumerate(pending) if c in row]
        if not hits:
            continue
        p = min(hits, key=lambda i: len(pending[i]))
        prow = pending[p]
        targets = [pending[i] for i in hits if i != p]
        targets += [row for row in done if c in row]
        for row in targets:
            _eliminate(row, prow, c)
        pending = [row for i, row in enumerate(pending) if i != p and row]
        done.append(prow)
        pivots.append(c)
    return done, pivots


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> None:
    """In place: ``row`` becomes ``(a/g) row - (f/g) prow``, with a and f
    the entries of ``prow`` and ``row`` at the pivot column c of ``prow``
    and ``g = gcd(a, f)``, divided by its content again."""
    a, f = prow[c], row[c]
    g = gcd(a, f)
    s, t = a // g, f // g
    if s != 1:
        for j in row:
            row[j] *= s
    for j, x in prow.items():
        v = row.get(j, 0) - t * x
        if v:
            row[j] = v
        else:
            del row[j]
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g


def _reduced(row: Mapping[int, Q], done: list[dict[int, int]],
             pivots: list[int]) -> dict[int, int]:
    """A primitive integer multiple of ``row`` minus a combination of the
    echelon rows ``done`` of :func:`_echelon`, zero at all their
    ``pivots``."""
    row = _primitive(row)
    for prow, c in zip(done, pivots):
        if c in row:
            _eliminate(row, prow, c)
    return row


def rref(rows: Iterable[Mapping[int, Q]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of ``{column: value}`` rows: the rows of
    :func:`_echelon` divided by their pivot entries into Fraction maps."""
    done, pivots = _echelon(rows)
    return ([{j: Q(x, row[c]) for j, x in row.items()}
             for row, c in zip(done, pivots)], pivots)


def rank(rows: Iterable[Mapping[int, Q]]) -> int:
    """The pivot count of the integer echelon; no Fraction is built."""
    return len(_echelon(rows)[1])


def kernel(rows: Iterable[Mapping[int, Q]], columns: Iterable[int]) -> list[Row]:
    """Basis of the right kernel of ``{column: value}`` rows whose keys all
    lie in ``columns``.

    One vector per free column, in the order of ``columns``: 1 at that
    column, 0 at every other free column, and minus the reduced entries at
    the pivots.  Vectors are ``{column: value}`` maps without zeros.
    """
    red, pivots = rref(rows)
    pivoted = set(pivots)
    basis = []
    for f in columns:
        if f in pivoted:
            continue
        v = {f: Q(1)}
        for row, c in zip(red, pivots):
            if f in row:
                v[c] = -row[f]
        basis.append(v)
    return basis


# ----------------------------------------------------------------------
# polynomial matrices (fraction-free)
# ----------------------------------------------------------------------

def _pivot_key(p: Poly) -> tuple[int, int]:
    return (len(p.terms), p.degree())


def _check_product(what: str, f: Poly, g: Poly) -> None:
    """Raise :class:`BudgetError` when ``f*g`` would multiply more than
    ``TERM_BUDGET`` pairs of terms."""
    if len(f.terms) * len(g.terms) > TERM_BUDGET:
        raise BudgetError(f"{what} product of {len(f.terms)} x "
                          f"{len(g.terms)} terms exceeds the budget")


def _bareiss_entry(pivot: Poly, head: Poly, a: Poly, b: Poly,
                   prev: Poly | None) -> Poly:
    """``(pivot*a - head*b) / prev``, exact by the Bareiss identity.

    Raises :class:`BudgetError` before expanding when either product would
    multiply more than ``TERM_BUDGET`` pairs of terms.
    """
    _check_product("elimination", pivot, a)
    _check_product("elimination", head, b)
    num = pivot * a - head * b
    return num.div_exact(prev) if prev is not None else num


def bareiss_pivots(rows: list[list[Poly]]) -> tuple[int, list[int], list[int]]:
    """Rank over the fraction field, plus row/column indices of a maximal
    nonsingular submatrix of the input.

    Full pivoting with a smallest-entry heuristic; divisions by the previous
    pivot are exact by the Bareiss identity.  Every entry update is checked
    against ``TERM_BUDGET`` (:class:`BudgetError`).
    """
    if not rows or not rows[0]:
        return 0, [], []
    work = [row[:] for row in rows]
    nr, nc = len(work), len(work[0])
    row_idx = list(range(nr))
    col_idx = list(range(nc))
    prev: Poly | None = None
    step = 0
    while step < min(nr, nc):
        best = None
        for i in range(step, nr):
            for j in range(step, nc):
                e = work[i][j]
                if e.is_zero():
                    continue
                key = _pivot_key(e)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        work[step], work[pi] = work[pi], work[step]
        row_idx[step], row_idx[pi] = row_idx[pi], row_idx[step]
        if pj != step:
            for row in work:
                row[step], row[pj] = row[pj], row[step]
            col_idx[step], col_idx[pj] = col_idx[pj], col_idx[step]
        pivot = work[step][step]
        for i in range(step + 1, nr):
            head = work[i][step]
            for j in range(step + 1, nc):
                work[i][j] = _bareiss_entry(pivot, head, work[i][j],
                                            work[step][j], prev)
            work[i][step] = Poly.zero(pivot.nvars)
        prev = pivot
        step += 1
    return step, sorted(row_idx[:step]), sorted(col_idx[:step])


def poly_rank(rows: list[list[Poly]]) -> int:
    return bareiss_pivots(rows)[0]


def poly_det(rows: list[list[Poly]]) -> Poly:
    """Determinant by Laplace expansion along the rows, memoized over the
    set of columns already used.

    ``level[used]`` is the minor on the first ``popcount(used)`` rows and
    the columns in the bitmask ``used``; the next row extends it by each
    unused column c with a nonzero entry, signed by the parity of the used
    columns to the right of c.  Each minor is one sum of products, and
    every product is checked against ``TERM_BUDGET`` before it is expanded
    (:class:`BudgetError`).
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    nvars = rows[0][0].nvars
    level = {0: Poly.const(nvars, 1)}
    for row in rows:
        entries = [(c, f, -f) for c, f in enumerate(row) if f.terms]
        pairs: dict[int, list[tuple[Poly, Poly]]] = {}
        for used, minor in level.items():
            for c, f, neg in entries:
                if not used >> c & 1:
                    _check_product("elimination", f, minor)
                    odd = (used >> (c + 1)).bit_count() % 2
                    pairs.setdefault(used | 1 << c, []).append((neg if odd else f, minor))
        level = {used: p for used, ps in pairs.items()
                 if (p := Poly.sum_of_products(nvars, ps)).terms}
    return level.get((1 << n) - 1, Poly.zero(nvars))


def pfaffian(m: list[list[Poly]]) -> Poly:
    """Pfaffian of an antisymmetric polynomial matrix, normalized so the
    standard 2x2 block [[0,1],[-1,0]] gives 1.

    Expands along the first remaining index, memoized over the tuple of
    remaining indices; every product is checked against ``TERM_BUDGET``
    before it is expanded (:class:`BudgetError`).
    """
    n = len(m)
    if n % 2:
        raise ValueError("Pfaffian of an odd-size matrix")
    nvars = m[0][0].nvars if n else 0
    memo: dict[tuple[int, ...], Poly] = {(): Poly.const(nvars, 1)}

    def pf(rest: tuple[int, ...]) -> Poly:
        if rest not in memo:
            i, pairs = rest[0], []
            for k in range(1, len(rest)):
                f = m[i][rest[k]]
                if f.terms:
                    sub = pf(rest[1:k] + rest[k + 1:])
                    _check_product("elimination", f, sub)
                    pairs.append((f if k % 2 else -f, sub))
            memo[rest] = Poly.sum_of_products(nvars, pairs)
        return memo[rest]

    return pf(tuple(range(n)))


def poly_kernel(rows: list[list[Poly]]) -> list[list[Poly]]:
    """Basis of the right kernel over the fraction field, with polynomial
    entries.

    For each non-pivot column f the kernel vector is built from signed
    maximal minors on the pivot rows and columns extended by f; all entries
    are minors of the input, so no divisions occur.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    r, prow, pcol = bareiss_pivots(rows)
    nvars = rows[0][0].nvars if nr and nc else 0
    free = [c for c in range(nc) if c not in pcol]
    if r == 0:
        out = []
        for f in free:
            v = [Poly.zero(nvars) for _ in range(nc)]
            v[f] = Poly.const(nvars, 1)
            out.append(v)
        return out
    basis = []
    for f in free:
        cols = sorted(pcol + [f])
        v = [Poly.zero(nvars) for _ in range(nc)]
        for s, c in enumerate(cols):
            sub = [[rows[i][c2] for c2 in cols if c2 != c] for i in prow]
            d = poly_det(sub)
            if s % 2:
                d = -d
            v[c] = d
        basis.append(v)
    return basis


def _dot(us: list[Poly], vs: list[Poly], nvars: int) -> Poly:
    """``sum_i us[i]*vs[i]``, each product checked against ``TERM_BUDGET``
    (:class:`BudgetError`) before any is expanded."""
    pairs = [(u, v) for u, v in zip(us, vs) if u.terms and v.terms]
    for u, v in pairs:
        _check_product("compression", u, v)
    return Poly.sum_of_products(nvars, pairs)


def contraction_rank(a_block: list[list[Poly]], b_block: list[list[Poly]]) -> int:
    """Generic rank of the skew matrix ``[[A, B], [-B^T, 0]]``.

    With C a kernel basis of ``B^T`` the rank equals
    ``2*rank(B) + rank(C^T A C)``: column operations against the full-row-rank
    part of B clear everything except the compression of A to ker(B^T).
    Every product of the compression is checked against ``TERM_BUDGET``.
    """
    d0 = len(a_block)
    bt = [list(col) for col in zip(*b_block)] if d0 and b_block[0] else []
    if not bt:
        return poly_rank(a_block)
    c_basis = poly_kernel(bt)
    rb = d0 - len(c_basis)  # rank B = rank B^T = d0 - dim ker B^T
    if not c_basis:
        return 2 * rb
    nvars = c_basis[0][0].nvars
    av = [[_dot(row, v, nvars) for row in a_block] for v in c_basis]
    compressed = [[_dot(u, w_img, nvars) for w_img in av] for u in c_basis]
    return 2 * rb + poly_rank(compressed)


# ----------------------------------------------------------------------
# small exact matrix utilities (dense, over Q)
# ----------------------------------------------------------------------

def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product ``a b``, accumulating only products of nonzero entries."""
    ncols = len(b[0])
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * ncols
        for k, x in enumerate(row):
            if x:
                for j, y in b_nonzero[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero_mat(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def invert(a: Mat) -> Mat:
    """Exact inverse of a nonsingular rational matrix."""
    n = len(a)
    red, pivots = rref([{**dict(enumerate(row)), n + i: Q(1)}
                        for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, Q(0)) for j in range(n)] for row in red]
