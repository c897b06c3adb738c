import random
from fractions import Fraction as Q

import pytest

from z2poisson import linalg
from z2poisson.poly import Poly


def rand_mat(rng, rows, cols, lo=-5, hi=5):
    return [[Q(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def test_rref_and_rank():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(m) == 2
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]


def test_kernel_annihilates():
    rng = random.Random(2)
    for _ in range(25):
        m = rand_mat(rng, 4, 6)
        for v in linalg.kernel(m):
            assert all(sum(row[j] * v[j] for j in range(6)) == 0 for row in m)
        assert linalg.rank(m) + len(linalg.kernel(m)) == 6


def test_column_solver():
    cols = [[Q(1), Q(0), Q(2)], [Q(0), Q(1), Q(1)]]
    s = linalg.ColumnSolver(cols)
    assert s.solve([Q(3), Q(4), Q(10)]) == [Q(3), Q(4)]
    assert s.solve([Q(0), Q(0), Q(1)]) is None
    with pytest.raises(ValueError):
        linalg.ColumnSolver([[Q(1), Q(2)], [Q(2), Q(4)]])


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


def test_rref_matches_dense_oracle():
    for m in oracle_cases():
        before = [list(row) for row in m]
        red, pivots = linalg.rref(m)
        assert (red, pivots) == dense_rref(m)
        assert all(isinstance(x, Q) for row in red for x in row)
        assert m == before
        assert linalg.rank(m) == len(pivots)


def test_kernel_matches_oracle_and_keeps_input():
    for m in oracle_cases():
        before = [list(row) for row in m]
        n = len(m[0])
        basis = linalg.kernel(m)
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


def test_column_solver_sparse_and_out_of_span():
    rng = random.Random(5)
    for density in (0.1, 0.4, 1.0):
        for nrows, ncols in ((6, 2), (9, 4), (5, 5)):
            # column j alone is nonzero on row marks[j], so the basis is
            # independent
            cols = sparse_mat(rng, ncols, nrows, density, True)
            marks = rng.sample(range(nrows), ncols)
            for j, col in enumerate(cols):
                for t in marks:
                    col[t] = Q(0)
                col[marks[j]] = Q(rng.randint(1, 5))
            s = linalg.ColumnSolver(cols)
            coords = [Q(0)] * ncols
            coords[rng.randrange(ncols)] = Q(rng.randint(1, 9), 7)
            b = [sum(coords[j] * cols[j][i] for j in range(ncols))
                 for i in range(nrows)]
            assert s.solve(b) == coords
            assert s.solve([Q(0)] * nrows) == [0] * ncols
            if ncols < nrows:
                # a vector outside the span: kernel of the transposed basis
                normal = linalg.kernel(cols)[0]
                assert s.solve(normal) is None
                assert s.solve([x + y for x, y in zip(b, normal)]) is None


def test_invert():
    m = [[Q(2), Q(1)], [Q(1), Q(1)]]
    inv = linalg.invert(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(2)
    with pytest.raises(ValueError):
        linalg.invert([[Q(1), Q(1)], [Q(1), Q(1)]])


def _const_poly_matrix(m, nvars=2):
    return [[Poly.const(nvars, x) for x in row] for row in m]


def test_poly_rank_on_constant_matrices_matches_rational_rank():
    rng = random.Random(9)
    for _ in range(20):
        m = rand_mat(rng, 4, 5, -3, 3)
        assert linalg.poly_rank(_const_poly_matrix(m)) == linalg.rank(m)


def test_poly_rank_symbolic():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    zero = Poly.zero(2)
    assert linalg.poly_rank([[x, y], [y, x]]) == 2
    assert linalg.poly_rank([[x, y], [x, y]]) == 1
    assert linalg.poly_rank([[zero, zero], [zero, zero]]) == 0


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
                p = Poly.linear([rng.randint(-2, 2) for _ in range(nvars)])
                a[i][j] = p
                a[j][i] = -p
        b = [[Poly.linear([rng.randint(-2, 2) for _ in range(nvars)])
              for _ in range(d1)] for _ in range(d0)]
        full = [[Poly.zero(nvars) for _ in range(d0 + d1)] for _ in range(d0 + d1)]
        for i in range(d0):
            for j in range(d0):
                full[i][j] = a[i][j]
            for j in range(d1):
                full[i][d0 + j] = b[i][j]
                full[d0 + j][i] = -b[i][j]
        assert linalg.contraction_rank(a, b) == linalg.poly_rank(full)


def test_min_poly_squarefree():
    nilpotent = [[Q(0), Q(1)], [Q(0), Q(0)]]
    assert not linalg.min_poly_squarefree(nilpotent)
    semisimple = [[Q(0), Q(1)], [Q(1), Q(0)]]
    assert linalg.min_poly_squarefree(semisimple)
    assert linalg.min_poly_squarefree([[Q(0), Q(0)], [Q(0), Q(0)]])
