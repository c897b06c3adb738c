import hashlib
import json
import random
from fractions import Fraction as Q

import pytest

from z2poisson import (AlgebraValidationError, GenericityError, LieAlgebra,
                       PairId, UnsupportedPairError, Z2Grading, build_pair,
                       check_regular_stabilizer_index, contract,
                       contraction_invariants, index, is_regular, linalg,
                       matrix_algebra, satake_of, stabilizer)
from z2poisson.poly import Poly
from z2poisson.structure import (_check_cartan, _greedy_zero_block, _span_algebra,
                                 algebra_from_matrices, even_stabilizer,
                                 sample_covector, trace_covector)

from test_invariants import LADDER_PAIRS, TIER1_PAIRS

from oracles import (ad_matrix, b_value, bracket, centralizer_of_cartan,
                     dense_structure_constants, graded_centralizer, subalgebra,
                     trace_pair)

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
        LieAlgebra(("a", "b", "c"), {(0, 1): {2: 1}, (0, 2): {0: 1}}).check_jacobi()


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
        LieAlgebra(("a", "b", "c", "d", "e"), sc).check_jacobi()


def test_spans_must_be_independent_and_closed(pair):
    e12, e21 = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    with pytest.raises(ValueError, match="not linearly independent"):
        algebra_from_matrices([e12, [[0, 2], [0, 0]]], ["a", "b"])
    with pytest.raises(ValueError, match=r"not bracket-closed at \(0,1\)"):
        algebra_from_matrices([e12, e21], ["a", "b"])
    g = pair("sl2,so2").g

    def span(vectors):
        return _span_algebra(vectors, lambda a, b: bracket(g, vectors[a], vectors[b]),
                             [f"t{i}" for i in range(len(vectors))])

    u, v = unit(3, 0), unit(3, 1)
    with pytest.raises(ValueError, match="not linearly independent"):
        span([u, [2 * x for x in u]])
    with pytest.raises(ValueError, match=r"not bracket-closed at \(0,1\)"):
        span([u, v])
    # the empty family spans the zero algebra
    empty = span([])
    assert (empty.dim, empty.sc) == (0, {})


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


def test_structure_constants_match_dense_oracle():
    pairs = _catalog_pairs_up_to(24)
    assert len(pairs) >= 20
    for pid, dim in pairs:
        pr = build_pair(pid)
        assert pr.g.dim == dim, pid
        assert pr.g.sc == dense_structure_constants(pr.realization.matrices), pid


def test_span_algebra_is_one_elimination(pair, monkeypatch):
    # the members and every bracket are columns of one Gauss-Jordan
    # elimination
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(1) or real(rows))
    for name in ["sl3,so3", "sl4,sp4", "sl3+sl3,diag"]:
        pr = pair(name)
        even = [unit(pr.g.dim, i) for i in pr.grading.even_idx]
        for build in (lambda: algebra_from_matrices(pr.realization.matrices, pr.g.labels),
                      lambda: _span_algebra(even,
                                            lambda a, b: bracket(pr.g, even[a], even[b]),
                                            [f"t{i}" for i in range(len(even))])):
            calls.clear()
            build()
            assert len(calls) == 1, name


def _realization_digest(real, pr=None):
    """sha256 of a realization's labels, matrices, structure constants and
    fields, and of a pair's grading and Cartan subspace."""
    parts = [real.algebra.labels, real.matrices,
             [[i, j, sorted((k, str(c)) for k, c in entry.items())]
              for (i, j), entry in sorted(real.algebra.sc.items())],
             real.kind, real.size, real.form, real.cartan]
    if pr is not None:
        parts += [pr.grading.even_idx, pr.grading.odd_idx,
                  [[str(c) for c in v] for v in pr.cartan_subspace]]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


_PINNED_MATRIX_ALGEBRAS = [("sl", 2), ("sl", 4), ("so", 3), ("so", 6),
                           ("sp", 2), ("sp", 6)]

_PINNED_REALIZATIONS = {
    "sl_so(2,)": "34d6555f2fb14d2aebc976059c8566e654b5b40beb6934a5d4c52e92c9707755",
    "sl_so(3,)": "be6c12b54f40ca99ba2fb40fe368b84d2ddf199c84d1f0cc8a4717ab5f1a11c2",
    "sl_so(4,)": "34647ec489005b3f9b935bf1d9edb1cc9c2861b83bd8fc5e84502857ad65751e",
    "sl_so(5,)": "eb09893cca88c17cc09b87535237b9862167bec7a7485ab85ddb498ec099f9cd",
    "sl_so(6,)": "c23568784aa35de487ade0f47dc5adf0c5477f79a24974bda7fc28808828f9c2",
    "sl_gl(2, 1)": "d7b1e5de4e6304ac5f78e0cb14df3c727fae0ceafbf7f3b3432833c1da7e2f2a",
    "sl_gl(3, 1)": "72f603dcbab2647ec41d9f22b886fe10a41e99c455e88df31a4190f7370c7d34",
    "sl_gl(4, 1)": "70724bc6e6bf92a7072a8f4bf99236ac384818a366e8d35c20a9a51364f682c2",
    "sl_gl(4, 2)": "13e66f5e174623672c313acd20348546582d8764f103f967ac3b67dc25d9c776",
    "sl_gl(5, 1)": "b0343273a133091cda3f8640cfd855ae8f35cdd8364464333aaf35c511ddd5a6",
    "sl_gl(5, 2)": "3574ea3bdfc3ca674a12c284e518db4c40a8b74487e12186d2e731cbebdb3394",
    "sl_gl(6, 1)": "acc95a3f5f017ab9c9fdc90db38183035076800f27553fac386aa346820354cb",
    "sl_gl(6, 2)": "6a39424cb4e751c5da22062e4eb6c8c3569f6c2756e68f582cccd918c59bec0f",
    "sl_gl(6, 3)": "6c66f472f8b6cfc59b9df8ecc40ee338ffffd51cc29d926d376c182711804461",
    "sl_sp(2,)": "7979c96b308bf2e4bb278a076641aaf091d62496ccfb473689aa96a075cb46b4",
    "sl_sp(3,)": "593b00a1d435658ccc780c89326aa399e29cbcd6dde0a07d2bbfaf2c1439835c",
    "so_so(1, 4)": "b27f2ffb4effa6137fc4208ea8b96ce88b782e95868aba451df265e586418643",
    "so_so(1, 5)": "a70f82da1e7e8200c059b1e8eb6f8d8dfeac494eaf0a696a19ae90bec9c2576a",
    "so_so(1, 6)": "cf134ed5b1be345dbcd884592810563452824e48134f7c6061379e3f38dca0b6",
    "so_so(1, 7)": "637ae7e7b7ce2574edb168c07919b23847549692a8c10a933f910fab603f177e",
    "so_so(2, 3)": "02dcd528616a0993270c6f7e3717a0f124a0c29ea6299b411fa88d0bed604213",
    "so_so(2, 4)": "26864bda2f9e88cb1a9907d6d821a4744702d3cd2ad706c0e78c4ac2a8c7e6e7",
    "so_so(2, 5)": "a4fa3171043c1034c651b3e6d6512809a1b3c7bbdafad5bb79faea29a911acd6",
    "so_so(2, 6)": "dff506afd4613c271fa20ec4b9874a27ed10f81886a294070dd8447237386936",
    "so_so(2, 7)": "aa8c1929416a23daa3ecaabc63cd3d6c89c88b931a046731eda56eca683c7931",
    "so_so(3, 3)": "c6f9bd940fb558fe958c3a2f9a097e8033954200feb7aa3419574df8c71524a9",
    "so_so(3, 4)": "3b3507e5304394bd57df95523921c6ba1a60488308a06b03a40911f8b3c918ca",
    "so_so(3, 5)": "a8b77660da93357c38abe02eec3181b8262c8754b17e38761481c0dba6253cc8",
    "so_so(3, 6)": "bfc08d35cdb213b456dbe61868c78b54a4601c650b7883cbe1b255e21552a88a",
    "so_so(4, 4)": "772e5b653674e9fb9f3eb893e1d9d003c31ae8910e299953e2c0f836d4088b90",
    "so_so(4, 5)": "ce41d08721e7af30631fc38cf85f80cadc5f7332833609a905aa6dd5c908c04d",
    "so_gl(4,)": "434980a4195ec8a145de6e23b50468fcc58a11e939db977a0eb7d69de11393c4",
    "sp_sp(2, 1)": "a7d8ea92b3a4f615fc4bed1f7422046f1b739a846f0c7008b578bf088af0a337",
    "sp_sp(3, 1)": "fcea3616a02fe9bc31b7eef3558115520e66f3e770de7bc25b6360ed1add2015",
    "sp_sp(4, 1)": "600ae39550200a734f00463c8f196c116c602b5005d2aea4ed354cd71b480236",
    "sp_sp(4, 2)": "6f51445898ebc33ff3d01878550e96aad8a0e23dee8a9874c63c45dfaf461b1a",
    "sp_gl(2,)": "82def8f220efb42ec7ddb63843471ecfffee03b374adbd835d22f183da9895a7",
    "sp_gl(3,)": "e52bfd4fdde90fbfb53886ac27e0efb6f3c3831f563ecdd7eb4e272a8ebf98dd",
    "sp_gl(4,)": "0e9ff60a6bd508d4dd46ccd6c5767eb46f131e94920cf2452dab24bf376dcb78",
    "diag_sl(2,)": "276d40ff3964b2d1060d4e751a19123eca1094f3726ea8af707f2583cdc921c9",
    "diag_sl(3,)": "4fb17dc7acd08c26e7a78f1d061251e99d2896206bc01d35876ee98cae925c4d",
    "diag_sl(4,)": "5d3c28557ea3bd97e4596adb3d6c72c063e8275415172022964a41fd37bba82e",
    "diag_so(5,)": "708d1baf17c70fe04332d91b5d08c6b56389d50d9f6463b2f44c48eeb8268853",
    "diag_so(6,)": "eadcd1b2a0324f375e09d3132cfef641895aa3d4b034deaa6cbf7d024380a599",
    "diag_sp(2,)": "e3ac522bbe46bbba3e0f9175649d63faaf5dbfc8069ae8b79e0f5a7ec134aabe",
    "so_gl(5,)": "fe824832da1ad445754cec3a664c5fa641012168694a255b0b4cc44092cef8d1",
    "sl2": "18b178b491b27ef5116877a28e6fc1d65518bb673f9b5fe5dd03675a331051f6",
    "sl4": "fe43dae8225e84b0e76313d31c68577ddaa041312c67c0ba82be3961450c9f19",
    "so3": "675bcfcce992489dd2de5988e21abf1925c24939e8b8e0f4324b2652ca6d53a7",
    "so6": "642957da8333fdf88b8d68188f38e73a6b786613e1857c82097e30ca8843ae7e",
    "sp2": "58cfd37dd6a0b55477c7f21e15afb9024cabf01a0821e67c4d1b03a9418721c5",
    "sp6": "d2b7c559e8d453698117fe874ce578ae8d70d61d77526d21b34e96c818a113ba",
}


def test_realizations_are_pinned():
    # every label, matrix, basis position and Cartan vector of each builder,
    # as first written; so_gl (5,) is the arrowed odd case
    pairs = [pid for pid, _ in _catalog_pairs_up_to(36)] + [PairId("so_gl", (5,))]
    got = {}
    for pid in pairs:
        pr = build_pair(pid)
        got[f"{pid.family}{pid.params}"] = _realization_digest(pr.realization, pr)
    for name, n in _PINNED_MATRIX_ALGEBRAS:
        got[f"{name}{n}"] = _realization_digest(matrix_algebra(name, n))
    assert got == _PINNED_REALIZATIONS


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


def test_sample_covector_draws_the_same_values_as_int():
    # the draws a Fraction sampler would make, value for value and in print
    for seed, dim, bound in ((1, 21, 10 ** 6), (7, 3, 97), (3, 0, 5)):
        got = sample_covector(dim, random.Random(seed), bound=bound)
        rng = random.Random(seed)
        want = [Q(rng.randint(-bound, bound)) for _ in range(dim)]
        assert got == want and [str(x) for x in got] == [str(x) for x in want]
        assert all(type(x) is int for x in got)


def test_index_examples(pair):
    pr = pair("sl2,so2")
    assert index(contract(pr.g, pr.grading)) == 1
    assert index(pair("sl3,so3").g) == 2          # semisimple: index = rank
    abelian = LieAlgebra(tuple("abcd"), {})
    assert index(abelian) == 4


def generic_cartan_point(pr):
    """A point z of the Cartan subspace with dim g1^z = rk(g, g0), and the
    bases of g0^z and g1^z, from the kernels of ad(z)."""
    rng = random.Random(1)
    for _ in range(12):
        coeffs = [rng.randint(-10 ** 6, 10 ** 6) for _ in pr.cartan_subspace]
        z = [sum((c * v[i] for c, v in zip(coeffs, pr.cartan_subspace)), Q(0))
             for i in range(pr.g.dim)]
        even_c, odd_c = graded_centralizer(pr, z)
        if len(odd_c) == pr.rank_pair:
            return z, even_c, odd_c
    pytest.fail(f"no generic Cartan point for {pr.pair}")


def _g0z(pr):
    """g0^z at a generic point z of the Cartan subspace."""
    return subalgebra(pr.g, generic_cartan_point(pr)[1])


def test_index_matches_plain_elimination(pair):
    # index splits the Kirillov matrix along a greedy zero block of any
    # size; the rank of the whole matrix, unsplit, is the oracle
    cases = [
        (LieAlgebra(tuple("abcd"), {}), 4),
        (matrix_algebra("sl", 2).algebra, 1),
        (_g0z(pair("so5,so4")), 1),
        (_g0z(pair("so6,so5")), 1),
        (_g0z(pair("sl4,sp4")), 2),
        (_g0z(pair("sl6,sp6")), 3),
        (pair("sl3,so3").contraction, 5),
    ]
    for q, block in cases:
        assert len(_greedy_zero_block(q)) == block
        assert index(q) == q.dim - linalg.poly_rank(q.kirillov_poly())


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
# graded centralizers: g0^v is the even stabilizer of tr(V .)
# ----------------------------------------------------------------------

def _odd_vector(pr, rng):
    return [rng.randint(-9, 9) if i in pr.grading.odd_idx else 0 for i in range(pr.g.dim)]


def _same_span(a, b) -> bool:
    rows = lambda vs: [dict(enumerate(v)) for v in vs]
    return len(a) == len(b) == linalg.rank(rows(a)) == linalg.rank(rows(a + b))


def test_graded_centralizer_dimension_identity(pair):
    # ad(v) maps g0 to g1 and back with transposed matrices under the trace
    # form: d0 - dim g0^v = d1 - dim g1^v, with g0^v the even stabilizer
    rng = random.Random(6)
    for name in ["sl3,so3", "sp4,sp2+sp2", "sl2+sl2,diag", "sl4,sp4", "so5,so4"]:
        pr = pair(name)
        for _ in range(6):
            v = _odd_vector(pr, rng)
            g0v = even_stabilizer(pr, trace_covector(pr, v))
            even_c, odd_c = graded_centralizer(pr, v)
            assert _same_span(g0v, even_c), name
            assert pr.d0 - len(g0v) == pr.d1 - len(odd_c), name


def test_graded_centralizer_cartan_point(pair):
    pr = pair("sl2,so2")
    h = pr.cartan_subspace[0]
    assert even_stabilizer(pr, trace_covector(pr, h)) == []
    assert graded_centralizer(pr, h) == ([], [h])


def test_graded_centralizer_zero(pair):
    pr = pair("so5,so4")
    assert len(even_stabilizer(pr, trace_covector(pr, [0] * pr.g.dim))) == pr.d0


def test_trace_covector_of_odd_vector_vanishes_on_g0(pair):
    # g0 and g1 are orthogonal under the trace form, so even_stabilizer may
    # read the odd entries of beta alone
    rng = random.Random(4)
    for name in SUPPORTED:
        pr = pair(name)
        v = _odd_vector(pr, rng)
        beta = trace_covector(pr, v)
        mats = pr.realization.matrices
        vm = [[sum(x * m[a][b] for x, m in zip(v, mats)) for b in range(len(mats[0]))]
              for a in range(len(mats[0]))]
        assert beta == [trace_pair(vm, m) for m in mats], name
        assert all(beta[i] == 0 for i in pr.grading.even_idx), name
        assert any(beta[i] for i in pr.grading.odd_idx), name


def test_regular_stabilizer_index(pair):
    expected = {
        "sl2,so2": (1, 0), "sl2+sl2,diag": (1, 1), "sp4,sp2+sp2": (1, 1),
        "sl3,so3": (2, 0), "so5,so4": (1, 1), "sl3,gl2": (1, 1),
    }
    for name, (dim_g1z, ind_g0z) in expected.items():
        pr = pair(name)
        rep = check_regular_stabilizer_index(pr, contraction_invariants(pr).meta["index"],
                                             seed=3)
        assert rep["pass"], (name, rep)
        assert rep["dim_g1z"] == dim_g1z
        assert rep["ind_g0z"] == ind_g0z


def test_regular_stabilizer_index_matches_elimination(pair):
    # the certified row against the elimination oracle on g0^z, built in its
    # own basis from the kernel of ad(z); index_k = rk g is criterion 4
    for name in dict.fromkeys(TIER1_PAIRS + LADDER_PAIRS):
        pr = pair(name)
        rep = check_regular_stabilizer_index(pr, pr.rank_g)
        _, even_c, odd_c = generic_cartan_point(pr)
        assert rep["dim_g1z"] == len(odd_c) == pr.rank_pair, name
        assert rep["ind_g0z"] == index(subalgebra(pr.g, even_c)) \
            == pr.rank_g - pr.rank_pair, name


@pytest.mark.parametrize("off", [-1, 1])
def test_regular_stabilizer_index_with_a_wrong_index_never_closes(pair, off):
    # the lower bound index_k - dim g1^z moves with index_k, the upper bound
    # does not, so no attempt closes and the row is never a wrong number
    for name in ["sl2,so2", "sl3,so3", "so5,so4", "sl4,sp4", "sl3+sl3,diag"]:
        pr = pair(name)
        with pytest.raises(GenericityError):
            check_regular_stabilizer_index(pr, pr.rank_g + off)


def _symbolic_odd_centralizer_dim(pr):
    """Generic dimension of g1^z for z in the Cartan subspace: dim g1 minus
    the rank of ad(z) on g1, with z's Cartan coefficients as variables."""
    r = len(pr.cartan_subspace)
    cols = list(pr.grading.odd_idx)
    rows = [[Poly.zero(r) for _ in cols] for _ in range(pr.g.dim)]
    for t, vec in enumerate(pr.cartan_subspace):
        ad = ad_matrix(pr.g, vec)
        for i, row in enumerate(rows):
            for jj, j in enumerate(cols):
                if ad[i][j] != 0:
                    row[jj] = row[jj] + Poly.var(r, t, ad[i][j])
    return len(cols) - linalg.poly_rank(rows)


def test_odd_centralizer_certificate_matches_symbolic_reference(pair):
    # the Cartan certificate makes the sampled dim g1^z exact: the symbolic
    # rank over the Cartan coefficients gives the same number
    for name in SUPPORTED + ["sl4,so4", "sp6,gl3", "so7,so3+so4",
                             "sl4+sl4,diag", "sl5,so5"]:
        pr = pair(name)
        rep = check_regular_stabilizer_index(pr, pr.rank_g, seed=3)
        assert _symbolic_odd_centralizer_dim(pr) == pr.rank_pair == rep["dim_g1z"], name


def _cartan_mutant(pr, *groups):
    """The matrices, grading and Satake diagram of ``pr`` with a Cartan
    subspace of one vector per group of labels (the sum of those basis
    vectors)."""
    vecs = [[Q(sum(pr.g.labels[i] == lab for lab in group)) for i in range(pr.g.dim)]
            for group in groups]
    return pr.realization.matrices, pr.grading, vecs, pr.satake


@pytest.mark.parametrize("name, groups, message", [
    ("sl3,so3", [["v1"]], "does not match the diagram rank"),
    ("sl3,so3", [["v1", "u1_2"], ["v2"]], "leaves the odd eigenspace"),
    ("sl4,so4", [["v1"], ["v1"], ["v3"]], "linearly dependent"),
    ("sl3,so3", [["v1"], ["w1_2"]], "do not commute"),
    ("sl3,gl2", [["b1_3"]], "not a normal matrix"),
], ids=["count", "even-component", "repeated", "noncommuting", "nilpotent"])
def test_check_cartan_rejects(pair, name, groups, message):
    pr = pair(name)
    with pytest.raises(ValueError, match=message):
        _check_cartan(*_cartan_mutant(pr, *groups))


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


def coadjoint_check(pr) -> bool:
    """The trace-form equivariance oracle: on every basis pair, the coadjoint
    action of the contraction, computed from structure constants, matches
    the block formula obtained by identifying each eigenspace with its dual
    through the trace form.

    Convention: (x * xi)(y) = <xi, [y, x]>.
    """
    k = pr.contraction
    mats = pr.realization.matrices
    dim, size = k.dim, len(mats[0])
    tinv = linalg.invert([[trace_pair(mats[i], mats[j]) for j in range(dim)]
                          for i in range(dim)])
    even = set(pr.grading.even_idx)

    def partner(coeffs, keep):
        return [[sum(coeffs[t] * mats[t][a][b] for t in range(dim) if coeffs[t] and keep(t))
                 for b in range(size)] for a in range(size)]

    for m in range(dim):
        # xi = m-th dual basis vector; its trace-form partner as a matrix
        coeffs = [tinv[j][m] for j in range(dim)]
        big = partner(coeffs, lambda t: True)
        big_odd = partner(coeffs, lambda t: t not in even)
        for a in range(dim):
            eta = linalg.commutator(mats[a], big if a in even else big_odd)
            rhs = [trace_pair(eta, mats[l]) for l in range(dim)]
            lhs = [k.bracket_basis(l, a).get(m, Q(0)) for l in range(dim)]
            if lhs != rhs:
                return False
    return True


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
