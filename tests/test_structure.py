import json
import random
from fractions import Fraction as Q

import pytest

from z2poisson import (AlgebraValidationError, LieAlgebra, PairId,
                       UnsupportedPairError, Z2Grading, b_value, build_pair,
                       check_regular_stabilizer_index, coadjoint_check,
                       contract, contraction_invariants, graded_centralizer,
                       index, is_regular, linalg, matrix_algebra, satake_of,
                       stabilizer)
from z2poisson.linalg import ColumnSolver
from z2poisson.structure import (algebra_from_matrices, centralizer_of_cartan,
                                 sample_covector, subalgebra)

SUPPORTED = ["sl2,so2", "sl3,so3", "sl3,gl2", "sl4,sp4", "so5,so4",
             "sp4,sp2+sp2", "sl2+sl2,diag", "sl3+sl3,diag"]


def unit(dim, i):
    return [Q(1) if t == i else Q(0) for t in range(dim)]


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_sl2_so2_realization(pair):
    pr = pair("sl2,so2")
    assert pr.g.labels == ("u", "v", "w")
    assert pr.d0 == 1 and pr.d1 == 2
    # [u,v] = -2w, [u,w] = 2v, [v,w] = 2u
    assert pr.g.sc == {(0, 1): {2: -2}, (0, 2): {1: 2}, (1, 2): {0: 2}}


def test_dimension_table(pair):
    dims = {name: (pair(name).d0, pair(name).d1) for name in SUPPORTED}
    assert dims == {
        "sl2,so2": (1, 2), "sl3,so3": (3, 5), "sl3,gl2": (4, 4),
        "sl4,sp4": (10, 5), "so5,so4": (6, 4), "sp4,sp2+sp2": (6, 4),
        "sl2+sl2,diag": (3, 3), "sl3+sl3,diag": (8, 8),
    }


def test_cartan_subspace_dimension_matches_diagram_rank(pair):
    for name in SUPPORTED:
        pr = pair(name)
        assert len(pr.cartan_subspace) == pr.satake.rank()


def test_involution_and_grading_validate(pair):
    for name in ["sl3,gl2", "sp4,sp2+sp2", "sl2+sl2,diag"]:
        pr = pair(name)
        pr.grading.validate(pr.g)


def test_unsupported_families_rejected():
    with pytest.raises(UnsupportedPairError):
        build_pair("e6,f4")
    with pytest.raises(UnsupportedPairError):
        build_pair("f4,so9")


def test_jacobi_rejects_bad_constants():
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra(("a", "b", "c"), {(0, 1): {2: 1}, (0, 2): {0: 1}})


def test_grading_closure_violation():
    # the involution diag(1, 1, -1) is no automorphism: [u, v] = -2w
    pr = build_pair("sl2,so2")
    bad = Z2Grading((0, 1), (2,))
    with pytest.raises(ValueError, match="closure"):
        contract(pr.g, bad)


def test_jacobi_rejects_a_triple_that_cancels_in_one_coordinate():
    # on (0,1,2): [[e0,e1],e2] = e4 and [[e1,e2],e0] = -e4 cancel, while
    # [[e2,e0],e1] = e0 is left over
    sc = {(0, 1): {3: 1}, (1, 2): {3: 1}, (0, 2): {3: 1},
          (0, 3): {4: 1}, (2, 3): {4: -1}, (1, 3): {0: 1}}
    with pytest.raises(ValueError, match=r"Jacobi identity fails on basis triple \(0,1,2\)"):
        LieAlgebra(("a", "b", "c", "d", "e"), sc)


def _catalog_pairs_up_to(max_dim):
    """Every structure-level catalog pair with dim g <= max_dim."""
    sl = lambda n: n * n - 1
    so = lambda n: n * (n - 1) // 2
    sp = lambda n: n * (2 * n + 1)          # sp_{2n}
    candidates = (
        [(PairId("sl_so", (n,)), sl(n)) for n in range(2, 8)]
        + [(PairId("sl_gl", (n, k)), sl(n)) for n in range(2, 8) for k in range(1, n)]
        + [(PairId("sl_sp", (n,)), sl(2 * n)) for n in range(2, 5)]
        + [(PairId("so_so", (p, q)), so(p + q)) for p in range(1, 8) for q in range(p, 8)]
        + [(PairId("so_gl", (n,)), so(2 * n)) for n in range(2, 6)]
        + [(PairId("sp_sp", (n, k)), sp(n)) for n in range(1, 5) for k in range(1, n)]
        + [(PairId("sp_gl", (n,)), sp(n)) for n in range(1, 5)]
        + [(PairId("diag_sl", (n,)), 2 * sl(n)) for n in range(2, 5)]
        + [(PairId("diag_so", (n,)), 2 * so(n)) for n in range(3, 7)]
        + [(PairId("diag_sp", (n,)), 2 * sp(n)) for n in range(1, 4)])
    out = []
    for pid, dim in candidates:
        if dim > max_dim:
            continue
        try:
            satake_of(pid)
        except UnsupportedPairError:
            continue
        out.append((pid, dim))
    return out


def _dense_structure_constants(matrices):
    """Reference route: dense commutators, solved in the matrix basis."""
    n = len(matrices[0])
    solver = ColumnSolver([[m[i][j] for i in range(n) for j in range(n)]
                           for m in matrices])
    sc = {}
    for a in range(len(matrices)):
        for b in range(a + 1, len(matrices)):
            c = linalg.commutator(matrices[a], matrices[b])
            coords = solver.solve([c[i][j] for i in range(n) for j in range(n)])
            assert coords is not None
            entry = {k: v for k, v in enumerate(coords) if v != 0}
            if entry:
                sc[(a, b)] = entry
    return sc


def test_structure_constants_match_dense_oracle():
    pairs = _catalog_pairs_up_to(24)
    assert len(pairs) >= 20
    for pid, dim in pairs:
        pr = build_pair(pid)
        assert pr.g.dim == dim, pid
        assert pr.g.sc == _dense_structure_constants(pr.realization.matrices), pid


def test_realizations_are_integer_matrices(pair):
    for name in SUPPORTED:
        mats = pair(name).realization.matrices
        assert all(type(x) is int for m in mats for row in m for x in row), name


def test_structure_constants_do_not_depend_on_the_entry_type(pair):
    # the integer route and a Fraction copy of the same matrices agree
    for name in SUPPORTED:
        pr = pair(name)
        as_fractions = [[[Q(x) for x in row] for row in m]
                        for m in pr.realization.matrices]
        assert algebra_from_matrices(as_fractions, pr.g.labels).sc == pr.g.sc, name


def _scanned_bracket_rows(q):
    """Reference: coordinate i's row scanned out of ``sc`` pair by pair."""
    return tuple(
        tuple([(j, -1, e) for j in range(i) if (e := q.sc.get((j, i)))]
              + [(j, 1, e) for j in range(i + 1, q.dim) if (e := q.sc.get((i, j)))])
        for i in range(q.dim))


def test_bracket_rows_match_scan_of_sc():
    for pid, _ in _catalog_pairs_up_to(24):
        pr = build_pair(pid)
        for q in (pr.g, pr.contraction):
            assert q.bracket_rows == _scanned_bracket_rows(q), pid
    pr = build_pair("sl4,sp4")
    g0 = subalgebra(pr.g, [unit(pr.g.dim, i) for i in pr.grading.even_idx])
    assert g0.bracket_rows == _scanned_bracket_rows(g0)


# ----------------------------------------------------------------------
# contraction
# ----------------------------------------------------------------------

def test_contract_kills_odd_odd_brackets(pair):
    for name in SUPPORTED:
        pr = pair(name)
        k = contract(pr.g, pr.grading)
        assert k.dim == pr.g.dim
        odd = set(pr.grading.odd_idx)
        for (i, j), entry in pr.g.sc.items():
            if i in odd and j in odd:
                assert (i, j) not in k.sc
            else:
                assert k.sc.get((i, j)) == entry


def test_contract_sl2_example(pair):
    k = contract(pair("sl2,so2").g, pair("sl2,so2").grading)
    assert k.sc == {(0, 1): {2: -2}, (0, 2): {1: 2}}


# ----------------------------------------------------------------------
# Kirillov form, index, stabilizers
# ----------------------------------------------------------------------

def test_kirillov_matrix_example(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    xu, xv, xw = Q(5), Q(7), Q(11)
    m = k.kirillov_at([xu, xv, xw])
    assert m == [[0, -2 * xw, 2 * xv], [2 * xw, 0, 0], [-2 * xv, 0, 0]]
    assert k.kirillov_at([0, 0, 0]) == [[0] * 3 for _ in range(3)]
    rng = random.Random(0)
    xi = sample_covector(3, rng)
    m = k.kirillov_at(xi)
    assert all(m[i][j] == -m[j][i] for i in range(3) for j in range(3))


def test_index_examples(pair):
    pr = pair("sl2,so2")
    assert index(contract(pr.g, pr.grading)) == 1
    assert index(pair("sl3,so3").g) == 2          # semisimple: index = rank
    abelian = LieAlgebra(tuple("abcd"), {})
    assert index(abelian) == 4


def test_index_of_contraction_equals_rank(pair):
    # the certificate of the central generators equals rk g; criterion 4
    # checks the elimination against rk g on the same pairs
    for name in SUPPORTED:
        pr = pair(name)
        meta = contraction_invariants(pr).meta
        assert meta["index"] == pr.rank_g, name
        assert meta["b"] == Q(pr.g.dim + pr.rank_g, 2), name


def test_b_value(pair):
    assert b_value(pair("sl3,so3").g) == 5
    k = contract(pair("sl2,so2").g, pair("sl2,so2").grading)
    assert b_value(k) == 2
    for name in SUPPORTED:
        # index(k) = rk g, so b(k) = (dim + rk g)/2 must be integral
        pr = pair(name)
        assert Q(pr.g.dim + pr.rank_g, 2).denominator == 1, name


def test_stabilizer(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    assert stabilizer(k, [0, 1, 0]) == [[0, 1, 0]]
    assert len(stabilizer(k, [0, 0, 0])) == 3
    rng = random.Random(1)
    for _ in range(10):
        xi = sample_covector(k.dim, rng)
        assert len(stabilizer(k, xi)) >= index(k)


def test_is_regular(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    assert not is_regular(k, [1, 0, 0])
    assert is_regular(k, [0, 1, 0])
    assert is_regular(pr.g, [0, 1, 0])   # regular semisimple direction


# ----------------------------------------------------------------------
# graded centralizers
# ----------------------------------------------------------------------

def test_graded_centralizer_dimension_identity(pair):
    rng = random.Random(6)
    for name in ["sl3,so3", "sp4,sp2+sp2", "sl2+sl2,diag"]:
        pr = pair(name)
        for _ in range(6):
            v = [Q(rng.randint(-9, 9)) if i in pr.grading.odd_idx else Q(0)
                 for i in range(pr.g.dim)]
            even_c, odd_c = graded_centralizer(pr, v)
            assert pr.d0 - len(even_c) == pr.d1 - len(odd_c)


def test_graded_centralizer_cartan_point(pair):
    pr = pair("sl2,so2")
    h = pr.cartan_subspace[0]
    even_c, odd_c = graded_centralizer(pr, h)
    assert odd_c == [h]
    assert even_c == []


def test_graded_centralizer_zero(pair):
    pr = pair("so5,so4")
    even_c, odd_c = graded_centralizer(pr, [0] * pr.g.dim)
    assert len(even_c) == pr.d0 and len(odd_c) == pr.d1


def test_graded_centralizer_requires_odd_vector(pair):
    pr = pair("sl2,so2")
    with pytest.raises(ValueError):
        graded_centralizer(pr, [1, 0, 0])


def test_regular_stabilizer_index(pair):
    expected = {
        "sl2,so2": (1, 0), "sl2+sl2,diag": (1, 1), "sp4,sp2+sp2": (1, 1),
        "sl3,so3": (2, 0), "so5,so4": (1, 1), "sl3,gl2": (1, 1),
    }
    for name, (dim_g1z, ind_g0z) in expected.items():
        rep = check_regular_stabilizer_index(pair(name), seed=3)
        assert rep["pass"], (name, rep)
        assert rep["dim_g1z"] == dim_g1z
        assert rep["ind_g0z"] == ind_g0z


def test_regular_stabilizer_index_exact_mode(pair):
    rep = check_regular_stabilizer_index(pair("sl2+sl2,diag"), seed=3, exact=True)
    assert rep["symbolic_dim_g1z"] == rep["dim_g1z"]


# ----------------------------------------------------------------------
# structural identities
# ----------------------------------------------------------------------

def test_semidirect_index_formula(pair):
    # index(k) = dim g1 - dim g0 + dim r + index(r), r the Cartan centralizer;
    # index(k) = rk g is criterion 4
    for name in SUPPORTED:
        pr = pair(name)
        r_vectors = centralizer_of_cartan(pr)
        r = subalgebra(pr.g, r_vectors)
        assert pr.rank_g == pr.d1 - pr.d0 + r.dim + index(r), name


def test_maximal_rank_pairs_have_odd_dimension_b(pair):
    for name in ["sl2,so2", "sl3,so3"]:
        pr = pair(name)
        assert pr.d1 == b_value(pr.g)
    pr = build_pair("sp4,gl2")
    assert pr.d1 == b_value(pr.g)


def _dim_from_label(label):
    # dimension encoded by a centralizer type label like "sl2^2+sp4+t1"
    import re as _re
    total = 0
    for piece in label.split("+"):
        m = _re.fullmatch(r"(sl|so|sp|t)(\d+)(?:\^(\d+))?|0", piece)
        assert m, piece
        if piece == "0":
            continue
        name, n, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        single = {"sl": n * n - 1, "so": n * (n - 1) // 2,
                  "sp": n * (n + 1) // 2, "t": n}[name]
        total += single * power if name != "t" else n
    return total


def test_r_type_labels_match_computed_centralizers(pair):
    from z2poisson.diagram import r_type_label
    for name in SUPPORTED:
        pr = pair(name)
        label = r_type_label(pr.pair)
        assert label is not None, name
        assert _dim_from_label(label) == len(centralizer_of_cartan(pr)), \
            (name, label)


def test_coadjoint_check(pair):
    for name in ["sl2,so2", "sl3,gl2", "sp4,sp2+sp2", "sl2+sl2,diag", "so5,so4"]:
        assert coadjoint_check(pair(name)), name


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def test_structure_constants_json_round_trip(pair):
    g = pair("sl3,gl2").g
    blob = json.dumps(g.to_json())
    back = LieAlgebra.from_json(json.loads(blob))
    assert back.labels == g.labels
    assert back.sc == g.sc


@pytest.mark.parametrize("data", [
    {"dim": 3, "labels": ["e", "f", "h"], "sc": [[1, 2, [[0, "1"]]]]},
    {"dim": 3, "labels": ["e", "f", "h"], "sc": [[1, 2, [[4, "1"]]]]},
    {"dim": 3, "labels": ["e", "f", "h"], "sc": [[1.5, 2, [[3, "1"]]]]},
    {"dim": 3, "labels": ["e", "f", "h"], "sc": [[1, 2, [[3, "1/0"]]]]},
    {"dim": 3, "labels": ["e", "f", "h"]},
    {"dim": 3, "labels": ["e", "f", "h"], "sc": [[1, 2, [[3, None]]]]},
    ["not", "a", "dict"],
    {"dim": 3, "labels": ["e", "e", "h"], "sc": [[1, 2, [[3, "1"]]]]},
    {"dim": 3, "labels": ["e f", "f", "h"], "sc": [[1, 2, [[3, "1"]]]]},
    {"dim": 3, "labels": ["e", 2, "h"], "sc": [[1, 2, [[3, "1"]]]]},
], ids=["target-0", "target-past-dim", "fractional-key", "zero-denominator",
        "missing-sc", "null-coefficient", "not-a-dict", "duplicate-label",
        "label-with-space", "label-not-a-string"])
def test_from_json_rejects_malformed(data):
    with pytest.raises(AlgebraValidationError, match="not a Lie algebra"):
        LieAlgebra.from_json(data)


def test_from_json_fractions():
    data = {"dim": 2, "labels": ["a", "b"], "sc": [[1, 2, [[1, "1/2"]]]]}
    g = LieAlgebra.from_json(data)
    assert g.bracket_basis(0, 1) == {0: Q(1, 2)}
    assert g.bracket_basis(1, 0) == {0: Q(-1, 2)}


# ----------------------------------------------------------------------
# plain matrix algebras
# ----------------------------------------------------------------------

def test_matrix_algebra_dimensions():
    assert matrix_algebra("sl", 3).algebra.dim == 8
    assert matrix_algebra("so", 4).algebra.dim == 6
    assert matrix_algebra("sp", 4).algebra.dim == 10


def test_matrix_algebra_cartan_marks():
    real = matrix_algebra("sl", 3)
    assert len(real.cartan) == 2
    real2 = matrix_algebra("so", 5)
    assert len(real2.cartan) == 2
