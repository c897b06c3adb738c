import random
import time
from fractions import Fraction as Q

import pytest

from z2poisson import BudgetError, build_pair, linalg
from z2poisson.invariants import char_coefficients
from z2poisson.poly import Poly
from z2poisson.structure import sample_covector

from oracles import linear


def rand_mat(rng, rows, cols, lo=-5, hi=5):
    return [[Q(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def sparse(m):
    """Dense rows as ``{column: value}`` rows."""
    return [dict(enumerate(row)) for row in m]


def dense(vectors, n):
    """``{column: value}`` vectors as dense lists of length n."""
    return [[v.get(j, Q(0)) for j in range(n)] for v in vectors]


def test_rref_and_rank():
    m = sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(m) == 2
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]


def test_kernel_annihilates():
    rng = random.Random(2)
    for _ in range(25):
        m = rand_mat(rng, 4, 6)
        for v in dense(linalg.kernel(sparse(m), range(6)), 6):
            assert all(sum(row[j] * v[j] for j in range(6)) == 0 for row in m)
        assert linalg.rank(sparse(m)) + len(linalg.kernel(sparse(m), range(6))) == 6


def dense_rref(rows):
    """Reference: textbook dense Gauss-Jordan over Fraction, first nonzero
    row as pivot."""
    m = [[Q(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def sparse_mat(rng, rows, cols, density, as_fraction):
    def entry():
        if rng.random() >= density:
            return Q(0) if as_fraction else 0
        if as_fraction:
            return Q(rng.randint(-7, 7), rng.randint(1, 5))
        return rng.randint(-4, 4)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def oracle_cases():
    rng = random.Random(2024)
    shapes = [(12, 4), (30, 7), (4, 12), (6, 25), (1, 9), (9, 1), (5, 5)]
    for density in (0.05, 0.2, 0.5, 1.0):
        for rows, cols in shapes:
            for as_fraction in (False, True):
                m = sparse_mat(rng, rows, cols, density, as_fraction)
                yield m
                # repeated and scaled rows
                yield m + [list(m[0]), [2 * x for x in m[-1]]]
    yield [[0] * 6 for _ in range(4)]
    yield [[Q(0)] * 3]
    yield [[Q(1, 3), 2, 0]] * 5


def scale_cases():
    """Rows at the scale and in the value types the suites and callers use."""
    rng = random.Random(77)
    # Kirillov rows of a contraction at sampled covectors: entries ~ 10^6
    k = build_pair("sp6,gl3").contraction
    for _ in range(2):
        m = k.kirillov_at(sample_covector(k.dim, rng, bound=10 ** 6))
        yield m
        yield m[:7] + [list(m[3])] + [[Q(0)] * k.dim] + m[12:]
    # large coprime denominators, and negative leading entries
    primes = [1_000_003, 998_244_353, 999_999_937, 1_000_000_007, 2_147_483_647]
    yield [[Q(rng.randint(-10 ** 9, 10 ** 9), rng.choice(primes)) for _ in range(6)]
           for _ in range(5)]
    yield [[Q(-rng.randint(1, 10 ** 8), p) for _ in range(4)] for p in primes]
    yield [[-3, 2, 0, 5], [-6, 0, 1, 1], [0, -7, 2, 0], [-1, -1, -1, -1]]
    # all-int rows, mixed int/Fraction rows, duplicate and zero rows
    ints = [[rng.randint(-10 ** 7, 10 ** 7) for _ in range(7)] for _ in range(6)]
    yield ints + [list(ints[2]), [0] * 7, list(ints[2])]
    yield [[2, Q(1, 3), 0, -5], [Q(4), 2, Q(-7, 9), 0], [0, 0, 0, 0],
           [2, Q(1, 3), 0, -5]]
    # values that Fraction accepts: floats and "p/q" strings
    yield [[0.5, "3/7", 0, -2], ["-5/11", 2.25, "4", 0.0], [1.5, "9/7", 0, -6]]
    yield [["0", "1/2"], [0.0, "-3/4"]]


def test_rref_matches_dense_oracle():
    for m in oracle_cases():
        before = [list(row) for row in m]
        red, pivots = linalg.rref(sparse(m))
        red = dense(red, len(m[0])) + [[Q(0)] * len(m[0])] * (len(m) - len(red))
        assert (red, pivots) == dense_rref(m)
        assert all(isinstance(x, Q) for row in red for x in row)
        assert m == before
        assert linalg.rank(sparse(m)) == len(pivots)


def test_rref_matches_dense_oracle_at_suite_scale():
    for m in scale_cases():
        rows = sparse(m)
        before = [dict(row) for row in rows]
        red, pivots = linalg.rref(rows)
        assert rows == before
        assert all(isinstance(x, Q) for row in red for x in row.values())
        assert all(row[c] == 1 for row, c in zip(red, pivots))
        red = dense(red, len(m[0])) + [[Q(0)] * len(m[0])] * (len(m) - len(red))
        assert (red, pivots) == dense_rref(m)
        assert linalg.rank(sparse(m)) == len(pivots)


def test_rank_counts_the_pivots_of_rref(monkeypatch):
    # random integer and Fraction matrices, with zero and repeated rows;
    # rank reads the integer echelon and never builds the Fraction rows
    rng = random.Random(5)
    cases = []
    for _ in range(40):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        kind = rng.choice(["int", "fraction", "mixed"])

        def entry():
            x = rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-10 ** 6, 10 ** 6)])
            if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
                return Q(x, rng.randint(1, 12))
            return x

        m = [[entry() for _ in range(nc)] for _ in range(nr)]
        m += [[0] * nc] * rng.randint(0, 2) + [list(rng.choice(m))] * rng.randint(0, 1)
        rng.shuffle(m)
        cases.append(sparse(m))
    want = [len(linalg.rref(rows)[1]) for rows in cases]
    monkeypatch.setattr(linalg, "rref", None)
    assert [linalg.rank(rows) for rows in cases] == want
    assert set(want) != {max(want)}


def test_kernel_matches_oracle_and_keeps_input():
    for m in oracle_cases():
        before = [list(row) for row in m]
        n = len(m[0])
        basis = dense(linalg.kernel(sparse(m), range(n)), n)
        assert m == before
        red, pivots = dense_rref(m)
        free = [c for c in range(n) if c not in pivots]
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            assert v[f] == 1 and all(v[g] == 0 for g in free if g != f)
            assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in m)


def test_mat_mul_matches_triple_sum():
    rng = random.Random(31)
    for density in (0.05, 0.3, 1.0):
        for n, k, m in ((1, 1, 1), (3, 5, 2), (6, 6, 6), (2, 9, 7)):
            a = sparse_mat(rng, n, k, density, True)
            b = sparse_mat(rng, k, m, density, False)
            want = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
                    for i in range(n)]
            assert linalg.mat_mul(a, b) == want
    assert linalg.mat_mul([[Q(0)] * 3] * 2, [[Q(1)] * 4] * 3) == [[0] * 4] * 2


def test_invert():
    m = [[Q(2), Q(1)], [Q(1), Q(1)]]
    inv = linalg.invert(m)
    assert linalg.mat_mul(m, inv) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        linalg.invert([[Q(1), Q(1)], [Q(1), Q(1)]])


def _const_poly_matrix(m, nvars=2):
    return [[Poly.const(nvars, x) for x in row] for row in m]


def test_poly_rank_on_constant_matrices_matches_rational_rank():
    rng = random.Random(9)
    for _ in range(20):
        m = rand_mat(rng, 4, 5, -3, 3)
        assert linalg.poly_rank(_const_poly_matrix(m)) == linalg.rank(sparse(m))


def test_poly_rank_symbolic():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    zero = Poly.zero(2)
    assert linalg.poly_rank([[x, y], [y, x]]) == 2
    assert linalg.poly_rank([[x, y], [x, y]]) == 1
    assert linalg.poly_rank([[zero, zero], [zero, zero]]) == 0


def test_elimination_stops_at_the_term_budget():
    # every entry has 1,035 terms, so the first update multiplies more than
    # TERM_BUDGET pairs of terms
    def big(shift):
        return Poly(3, {(a, b, 44 - a - b): a + shift
                        for a in range(45) for b in range(45 - a)})

    m = [[big(1), big(2)], [big(3), big(5)]]
    assert all(len(p.terms) > 1000 for row in m for p in row)
    t0 = time.monotonic()
    with pytest.raises(BudgetError, match="elimination product"):
        linalg.poly_rank(m)
    with pytest.raises(BudgetError, match="elimination product"):
        linalg.poly_det(m)
    # det(X + tI) multiplies the two 1,036-term diagonal entries
    with pytest.raises(BudgetError, match="elimination product"):
        char_coefficients(m)
    # every term of the 4x4 Pfaffian is a product of two 1,035-term entries
    z = Poly.zero(3)
    skew = [[z, big(1), big(2), big(3)], [-big(1), z, big(5), big(7)],
            [-big(2), -big(5), z, big(11)], [-big(3), -big(7), -big(11), z]]
    with pytest.raises(BudgetError, match="elimination product"):
        linalg.pfaffian(skew)
    assert time.monotonic() - t0 < 1.0


def test_compression_stops_at_the_term_budget():
    # B^T is one row, so ker(B^T) has one vector with 1,035-term entries, and
    # its first product with an A entry multiplies more than TERM_BUDGET
    # pairs of terms
    def big(shift):
        return Poly(3, {(a, b, 44 - a - b): a + shift
                        for a in range(45) for b in range(45 - a)})

    a_block = [[big(1), big(2)], [big(3), big(5)]]
    b_block = [[big(7)], [big(11)]]
    t0 = time.monotonic()
    with pytest.raises(BudgetError, match="compression product"):
        linalg.contraction_rank(a_block, b_block)
    assert time.monotonic() - t0 < 1.0


def test_poly_det():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    assert linalg.poly_det([[x, y], [y, x]]) == x * x - y * y
    # antisymmetric swap picks up the sign
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    assert linalg.poly_det([[zero, one], [one, zero]]) == -one


def test_poly_kernel_annihilates_symbolically():
    x = Poly.var(3, 0)
    y = Poly.var(3, 1)
    z = Poly.var(3, 2)
    m = [[x, y, z]]
    basis = linalg.poly_kernel(m)
    assert len(basis) == 2
    for v in basis:
        s = sum((m[0][j] * v[j] for j in range(3)), Poly.zero(3))
        assert s.is_zero()


def test_contraction_rank_agrees_with_direct_elimination():
    # independent oracle: assemble the full skew matrix and eliminate it
    rng = random.Random(17)
    nvars = 4
    for _ in range(12):
        d0, d1 = rng.randint(1, 3), rng.randint(1, 3)
        a = [[Poly.zero(nvars) for _ in range(d0)] for _ in range(d0)]
        for i in range(d0):
            for j in range(i + 1, d0):
                p = linear([rng.randint(-2, 2) for _ in range(nvars)])
                a[i][j] = p
                a[j][i] = -p
        b = [[linear([rng.randint(-2, 2) for _ in range(nvars)])
              for _ in range(d1)] for _ in range(d0)]
        full = [[Poly.zero(nvars) for _ in range(d0 + d1)] for _ in range(d0 + d1)]
        for i in range(d0):
            for j in range(d0):
                full[i][j] = a[i][j]
            for j in range(d1):
                full[i][d0 + j] = b[i][j]
                full[d0 + j][i] = -b[i][j]
        assert linalg.contraction_rank(a, b) == linalg.poly_rank(full)


def test_kernel_on_unsorted_column_subset_matches_oracle():
    # a 3-column matrix whose columns sit at positions 1, 3, 5 of a larger
    # space; columns are eliminated in increasing position order
    columns = [5, 1, 3]
    positions = sorted(columns)
    for m in oracle_cases():
        m = [row[:3] for row in m]
        if len(m[0]) < 3:
            continue
        rows = [dict(zip(positions, row)) for row in m]
        before = [dict(row) for row in rows]
        basis = linalg.kernel(rows, columns)
        assert rows == before
        red, pivots = dense_rref(m)
        want = {}
        for f in range(3):
            if f in pivots:
                continue
            v = {f: Q(1)}
            v.update((c, -red[r][f]) for r, c in enumerate(pivots))
            want[positions[f]] = {positions[t]: x for t, x in v.items() if x}
        assert basis == [want[c] for c in columns if c in want]


def test_kernel_of_no_rows_is_the_unit_basis():
    assert linalg.kernel([], [5, 1, 3]) == [{5: 1}, {1: 1}, {3: 1}]
    assert linalg.kernel([{}, {2: Q(0)}], range(3)) == [{0: 1}, {1: 1}, {2: 1}]
