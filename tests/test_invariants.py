import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from z2poisson import (LieAlgebra, Poly, UnsupportedPairError,
                       check_regular_stabilizer_index, classical_invariants,
                       contract, contraction_invariants, index, matrix_algebra,
                       noncommutativity_witness, nreg_subalgebra,
                       pairwise_commuting, poisson_bracket, top_component,
                       verify_central)
from z2poisson import invariants, linalg, poisson, structure
from z2poisson.invariants import (_dual_matrices, _generic_matrix, _weight_echelon_tops,
                                  char_coefficients)
from z2poisson.linalg import pfaffian
from z2poisson.poisson import bracket_with_coordinate
from z2poisson.poly import Poly as P
from z2poisson.structure import (_span_algebra, even_stabilizer, sample_covector,
                                 stabilizer)

from oracles import (b_value, bracket, centralizer_of_cartan, degrees, kirillov_at,
                     linear, span_structure_constants, subalgebra,
                     weight_echelon_tops)


# ----------------------------------------------------------------------
# classical invariants
# ----------------------------------------------------------------------

def test_classical_degrees_sl(pair):
    inv = classical_invariants(pair("sl2,so2"))
    assert degrees(inv) == [2]
    assert all(verify_central(inv.algebra, f) for f in inv.polys)
    inv3 = classical_invariants(matrix_algebra("sl", 3))
    assert degrees(inv3) == [2, 3]
    assert sum(degrees(inv3)) == 5 == b_value(inv3.algebra)


def test_classical_degrees_orthogonal_and_symplectic():
    so4 = classical_invariants(matrix_algebra("so", 4))
    assert degrees(so4) == [2, 2]          # quadratic Casimir plus Pfaffian
    so5 = classical_invariants(matrix_algebra("so", 5))
    assert degrees(so5) == [2, 4]
    sp4 = classical_invariants(matrix_algebra("sp", 4))
    assert degrees(sp4) == [2, 4]
    assert sum(degrees(sp4)) == 6 == b_value(sp4.algebra)


def test_classical_count_is_rank(pair):
    for name, rk in [("sl4,sp4", 3), ("so5,so4", 2), ("sl3+sl3,diag", 4)]:
        pr = pair(name)
        inv = classical_invariants(pr)
        assert len(inv.polys) == rk == pr.rank_g
        # degree sum = (dim + rank)/2 without recomputing the index
        assert sum(degrees(inv)) == Q(pr.g.dim + pr.rank_g, 2)


def _oracle_realizations(pair):
    # every orthogonal kind: so_split (so8,gl4) and diag_so (so5+so5,diag)
    for name in dict.fromkeys(TIER1_PAIRS + LADDER_PAIRS + ["so8,gl4", "so5+so5,diag"]):
        yield name, pair(name)
    for name, n in [("sl", 3), ("so", 4), ("so", 5), ("sp", 4)]:
        yield f"{name}{n}", matrix_algebra(name, n)


def test_equivariance_certificate_agrees_with_symbolic_brackets(pair):
    # the oracle: every certified invariant is central by coordinate brackets
    for name, real in _oracle_realizations(pair):
        inv = classical_invariants(real)
        for f in inv.polys:
            assert verify_central(inv.algebra, f), name


def test_classical_invariants_take_no_bracket(pair, monkeypatch):
    calls = []
    raw = poisson.bracket_with_coordinate

    def counted(*args):
        calls.append(1)
        return raw(*args)

    monkeypatch.setattr(poisson, "bracket_with_coordinate", counted)
    monkeypatch.setattr(invariants, "bracket_with_coordinate", counted)
    for name, real in _oracle_realizations(pair):
        classical_invariants(real)
    assert calls == []
    verify_central(pair("sl3,so3").g, P.parse("u1_2", pair("sl3,so3").g.labels))
    assert calls                          # the counter does see brackets


@pytest.mark.parametrize("name", ["sl3,so3", "sp4,gl2", "so5,so4", "sl3+sl3,diag",
                                  "so8,gl4"])
def test_equivariance_certificate_rejects_wrong_duals(name, pair):
    real = pair(name).realization
    duals = _dual_matrices(real.matrices)
    invariants._certify_equivariant(real, duals)
    perturbed = [[row[:] for row in m] for m in duals]
    a, b = next((a, b) for a, row in enumerate(perturbed[0]) for b, x in enumerate(row) if x)
    perturbed[0][a][b] += Q(1, 3)
    swapped = list(duals)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    for bad in (perturbed, swapped):
        with pytest.raises(AssertionError, match="not equivariant"):
            invariants._certify_equivariant(real, bad)


def test_equivariance_certificate_rejects_wrong_form_or_blocks(pair):
    from z2poisson.structure import MatrixRealization
    real = pair("so8,gl4").realization
    size = len(real.matrices[0])
    plain = MatrixRealization(real.algebra, real.matrices, "so_split", size,
                              form=[[int(a == b) for b in range(size)] for a in range(size)])
    with pytest.raises(AssertionError, match="not antisymmetric"):
        invariants._certify_equivariant(plain, _dual_matrices(real.matrices))
    doubled = MatrixRealization(real.algebra, real.matrices, "so_split", size,
                                form=[[2 * x for x in row] for row in real.form])
    with pytest.raises(AssertionError, match="symmetric involution"):
        invariants._certify_equivariant(doubled, _dual_matrices(real.matrices))
    real = pair("sl3+sl3,diag").realization
    mats = [[row[:] for row in m] for m in real.matrices]
    mats[0][0][-1] = 1
    leaky = MatrixRealization(real.algebra, mats, real.kind, real.size)
    with pytest.raises(AssertionError, match="diagonal blocks"):
        invariants._certify_equivariant(leaky, _dual_matrices(real.matrices))


def test_sl2_casimir_value(pair):
    pr = pair("sl2,so2")
    inv = classical_invariants(pr)
    f = inv.polys[0]
    # proportional to u^2 - v^2 - w^2 (the trace-form dual scales it)
    target = P.parse("u^2-v^2-w^2", pr.g.labels)
    ratio = None
    for e, c in f.terms.items():
        assert e in target.terms
        r = c / target.terms[e]
        assert ratio is None or r == ratio
        ratio = r
    assert ratio != 0


def test_pfaffian_normalization():
    # pf of the standard antisymmetric 2x2 block is its upper entry
    x = Poly.var(1, 0)
    assert pfaffian([[Poly.zero(1), x], [-x, Poly.zero(1)]]) == x
    with pytest.raises(ValueError):
        pfaffian([[Poly.zero(1)]])


def test_pfaffian_squares_to_determinant():
    rng = random.Random(31)
    for _ in range(10):
        n = 4
        m = [[Poly.zero(1) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = Poly.const(1, rng.randint(-4, 4))
                m[i][j] = c
                m[j][i] = -c
        assert pfaffian(m) * pfaffian(m) == linalg.poly_det(m)


def _cofactor_det(m: list[list[Poly]], nvars: int) -> Poly:
    if not m:
        return Poly.const(nvars, 1)
    total = Poly.zero(nvars)
    for j, entry in enumerate(m[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = entry * _cofactor_det(minor, nvars)
        total = total + term if j % 2 == 0 else total - term
    return total


def _first_row_pfaffian(m: list[list[Poly]], nvars: int) -> Poly:
    """Plain expansion along the first row, (n-1)!! leaves, no memo."""
    if not m:
        return Poly.const(nvars, 1)
    total = Poly.zero(nvars)
    for j in range(1, len(m)):
        keep = [t for t in range(1, len(m)) if t != j]
        term = m[0][j] * _first_row_pfaffian([[m[a][b] for b in keep] for a in keep],
                                              nvars)
        total = total + term if j % 2 == 1 else total - term
    return total


def _random_linear(rng: random.Random, nvars: int) -> Poly:
    # about one entry in four is zero, so expansions skip some branches
    if rng.random() < 0.25:
        return Poly.zero(nvars)
    return linear([rng.randint(-3, 3) for _ in range(nvars)])


@pytest.mark.parametrize("n", [6, 8])
def test_pfaffian_matches_first_row_expansion(n):
    # from n = 6 on, distinct first-row branches reach the same remaining
    # indices, so the memo is reused and a wrong sign or key would show here
    rng = random.Random(100 + n)
    nvars = 3
    for _ in range(3):
        m = [[Poly.zero(nvars) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = _random_linear(rng, nvars)
                m[j][i] = -m[i][j]
        assert pfaffian(m) == _first_row_pfaffian(m, nvars)


def test_poly_det_matches_cofactor_expansion():
    rng = random.Random(55)
    nvars = 3
    for trial in range(4):
        m = [[_random_linear(rng, nvars) * _random_linear(rng, nvars)
              + Poly.const(nvars, rng.randint(-2, 2)) for _ in range(5)]
             for _ in range(5)]
        if trial == 3:
            # row 4 = row 0 - row 2: singular
            m[4] = [a - b for a, b in zip(m[0], m[2])]
        assert any(f.is_zero() for row in m for f in row)
        det = linalg.poly_det(m)
        assert det == _cofactor_det(m, nvars)
        assert det.is_zero() == (trial == 3)


@pytest.mark.parametrize("name,size", [("sl", 3), ("sp", 4), ("so", 4), ("so", 5)])
def test_char_coefficients_are_principal_minor_sums(name, size):
    # e_k = sum over k-subsets S of det X_S, on the trace-form dual generic
    # element (fractional entries) and on a generic matrix of free variables
    real = matrix_algebra(name, size)
    nvars = real.algebra.dim
    dual = _generic_matrix(_dual_matrices(real.matrices), nvars,
                           range(size), range(size))
    free = [[Poly.var(size * size, size * a + b, Q(a + 1, b + 2))
             for b in range(size)] for a in range(size)]
    for x, nv in ((dual, nvars), (free, size * size)):
        coeffs = char_coefficients(x)
        assert sorted(coeffs) == list(range(1, size + 1))
        for k in range(1, size + 1):
            minors = Poly.zero(nv)
            for sub in itertools.combinations(range(size), k):
                minors = minors + _cofactor_det([[x[a][b] for b in sub] for a in sub], nv)
            assert coeffs[k] == minors


def _char_coefficients_on_fractions(x: list[list[Poly]]) -> dict[int, Poly]:
    """Reference: det(X + tI) expanded on the Fraction coefficients of X."""
    n, nvars = len(x), x[0][0].nvars
    xt = [[Poly(nvars + 1, {e + (0,): Q(c) for e, c in f.terms.items()}) for f in row]
          for row in x]
    for a in range(n):
        xt[a][a] = xt[a][a] + Poly.var(nvars + 1, nvars)
    out = {k: Poly.zero(nvars) for k in range(1, n + 1)}
    for e, c in linalg.poly_det(xt).terms.items():
        if e[-1] < n:
            out[n - e[-1]].terms[e[:-1]] = c
    return out


LADDER_PAIRS = ["sl2,so2", "sl3,so3", "sp4,gl2", "so5,so4", "sl4,so4", "sl4,sp4",
                "sl5,gl3"]


def test_char_coefficients_on_integers_match_fraction_route(pair):
    # non-integral entries with several denominators, then the trace-form
    # dual generic element of every ladder pair
    free = [[Poly.var(9, 3 * a + b, Q(a + 1, b + 2)) + Poly.const(9, Q(1, 3 + a))
             for b in range(3)] for a in range(3)]
    cases = [("free", free, 9)]
    for name in LADDER_PAIRS:
        real = pair(name).realization
        size, nvars = len(real.matrices[0]), real.algebra.dim
        cases.append((name, _generic_matrix(_dual_matrices(real.matrices), nvars,
                                            range(size), range(size)), nvars))
    for name, x, nvars in cases:
        assert any(type(c) is Q for row in x for f in row for c in f.terms.values())
        got, want = char_coefficients(x), _char_coefficients_on_fractions(x)
        assert got == want, name
        labels = [f"x{i}" for i in range(nvars)]
        for k in got:
            assert got[k].to_text(labels) == want[k].to_text(labels), (name, k)
            # normalized: an integral coefficient is an int
            assert all(type(c) is int or c.denominator != 1
                       for c in got[k].terms.values()), (name, k)


# ----------------------------------------------------------------------
# top components and centrality
# ----------------------------------------------------------------------

TIER1_PAIRS = ["sl2,so2", "sl3,so3", "sl3,gl2", "sl4,sp4", "so5,so4",
               "sp4,sp2+sp2", "sl2+sl2,diag", "sl3+sl3,diag"]


def _tier1_algebras(pair):
    for name in TIER1_PAIRS:
        pr = pair(name)
        yield name, pr, pr.g
        yield name, pr, contract(pr.g, pr.grading)


def test_kirillov_at_an_integer_point_is_int(pair):
    rng = random.Random(9)
    for name, _, q in _tier1_algebras(pair):
        xi = sample_covector(q.dim, rng)
        got = q.kirillov_at(xi)
        assert all(type(x) is int for row in got for x in row), name
        assert got == kirillov_at(q, xi), name


def _summary_g0z_vectors(pr, monkeypatch) -> list:
    """The vectors of the g0^z whose index the summary suite certifies: the
    even stabilizer at its last, generic, Cartan point."""
    seen = []
    real = structure.even_stabilizer
    monkeypatch.setattr(structure, "even_stabilizer",
                        lambda pr, beta: seen.append(real(pr, beta)) or seen[-1])
    check_regular_stabilizer_index(pr, pr.rank_g)
    monkeypatch.undo()
    return seen[-1]


def _dimstab_points(pr, count: int, seed: int = 1):
    """The first ``count`` points eta that ``verify_dim_stab`` samples, each
    with the vectors of its g0^beta."""
    rng = random.Random(seed)
    for _ in range(count):
        eta = sample_covector(pr.g.dim, rng)
        beta = [eta[i] if i in pr.grading.odd_idx else Q(0) for i in range(pr.g.dim)]
        yield eta, even_stabilizer(pr, beta)


def _even_units(pr) -> list:
    return [[Q(1 if t == i else 0) for t in range(pr.g.dim)] for i in pr.grading.even_idx]


def test_derived_algebras_satisfy_jacobi(pair, monkeypatch):
    # the oracle for building without a Jacobi check: g and its contraction;
    # and the spans whose restricted Kirillov forms the summary and dimstab
    # suites read, g0^z, a g0^beta and g0, are subalgebras
    for name in dict.fromkeys(TIER1_PAIRS + LADDER_PAIRS):
        pr = pair(name)
        g0z = subalgebra(pr.g, _summary_g0z_vectors(pr, monkeypatch))
        (_, g0b), = _dimstab_points(pr, 1)
        g0 = subalgebra(pr.g, _even_units(pr))
        assert g0.dim == pr.d0, name
        for q in [pr.g, pr.contraction, g0z, subalgebra(pr.g, g0b), g0]:
            q.check_jacobi()


def test_derived_structure_constants_match_solved_brackets(pair, monkeypatch):
    # one elimination over every bracket (``_span_algebra``, which builds
    # every realization) gives what solving each bracket on its own gives,
    # on the summary's g0^z and a dimstab g0^beta
    for name in dict.fromkeys(TIER1_PAIRS + LADDER_PAIRS):
        pr = pair(name)
        (_, g0b), = _dimstab_points(pr, 1)
        for vectors in (_summary_g0z_vectors(pr, monkeypatch), g0b):
            br = lambda a, b: bracket(pr.g, vectors[a], vectors[b])
            labels = [f"t{i}" for i in range(len(vectors))]
            assert _span_algebra(vectors, br, labels).sc \
                == span_structure_constants(vectors, br), name


def test_restricted_stabilizer_matches_the_built_subalgebra(pair):
    # the kernel of alpha([x, y]) on V is the stabilizer of alpha restricted
    # to the subalgebra V, built in its own basis
    for name in dict.fromkeys(TIER1_PAIRS + LADDER_PAIRS):
        pr = pair(name)
        k = pr.contraction
        for eta, g0b in _dimstab_points(pr, 3):
            alpha = [eta[i] if i in pr.grading.even_idx else Q(0) for i in range(k.dim)]
            for vectors in (g0b, _even_units(pr)):
                got = stabilizer(k, alpha, basis=vectors)
                alpha_hat = [sum((alpha[i] * v[i] for i in range(k.dim)), Q(0))
                             for v in vectors]
                want = stabilizer(subalgebra(pr.g, vectors), alpha_hat)
                assert len(got) == len(want), name
                # in k's coordinates: members of the span, killed by the form
                assert linalg.rank([dict(enumerate(v)) for v in vectors + got]) \
                    == len(vectors), name
                assert all(sum((a * b for a, b in zip(alpha, bracket(k, x, v))), Q(0)) == 0
                           for x in got for v in vectors), name


def test_weight_echelon_tops_match_two_eliminations(pair):
    for name in dict.fromkeys(TIER1_PAIRS + LADDER_PAIRS):
        pr = pair(name)
        polys = [P(p.nvars, linalg._primitive(p.terms))
                 for p in classical_invariants(pr).polys]
        got = _weight_echelon_tops(polys, pr.grading)
        want = weight_echelon_tops(polys, pr.grading)
        assert [p.terms for p in got] == [p.terms for p in want], name


def test_generating_set_spans(pair):
    # the iterated brackets of the generating set reach rank dim q
    for name, _, q in _tier1_algebras(pair):
        gens = q.generating_set
        assert list(gens) == sorted(set(gens)) and len(gens) < q.dim, name
        unit = [[Q(1 if t == i else 0) for t in range(q.dim)] for i in gens]
        # left-normed brackets [..[[s1, s2], s3].., sk] span the subalgebra
        span, layer = list(unit), list(unit)
        while layer:
            fresh = []
            for v in (bracket(q, a, b) for a in layer for b in unit):
                if linalg.rank([dict(enumerate(r)) for r in span + [v]]) > len(span):
                    span.append(v)
                    fresh.append(v)
            layer = fresh
        assert len(span) == q.dim, name


def test_generating_set_of_abelian_algebra_is_every_coordinate():
    q = LieAlgebra(("a", "b", "c", "d"), {})
    assert q.generating_set == (0, 1, 2, 3)
    f = Poly.var(4, 0) * Poly.var(4, 3) + Poly.var(4, 1) ** 3
    assert verify_central(q, f)


def test_central_on_generating_set_matches_all_coordinates(pair):
    # every classical generator and every top gets the same verdict on the
    # generating set as on all coordinates; a planted non-central
    # polynomial (a generator plus a non-central coordinate) fails both
    verdicts = set()
    for name, pr, q in _tier1_algebras(pair):
        everything = range(q.dim)
        gens = classical_invariants(pr).polys
        polys = gens + _weight_echelon_tops(gens, pr.grading)
        outside = [i for i in everything
                   if not verify_central(q, Poly.var(q.dim, i), everything)]
        assert outside, name
        for f in polys:
            verdicts.add(verify_central(q, f))
            assert verify_central(q, f) == verify_central(q, f, everything), name
            for i in outside:
                planted = f + Poly.var(q.dim, i, Q(1, 3))
                assert not verify_central(q, planted), (name, i)
                assert not verify_central(q, planted, everything), (name, i)
    assert verdicts == {True, False}


def test_tops_from_integer_invariants_match_the_rational_route(pair):
    # contraction_invariants multiplies primitive integer invariants; the
    # row spans, so the reduced rows and the tops, are those of the
    # invariants as classical_invariants returns them, up to scale: each
    # top comes back as the primitive integer multiple of the rational one
    for name in ["sl3,so3", "sl4,sp4", "so5,so4", "sp4,sp2+sp2", "sl3+sl3,diag",
                 "sl5,gl3", "sp6,gl3"]:
        pr = pair(name)
        gens = classical_invariants(pr).polys
        assert any(type(c) is Q for f in gens for c in f.terms.values()), name
        want = _weight_echelon_tops(gens, pr.grading)
        got = contraction_invariants(pr).polys
        assert [f.terms for f in got] == [linalg._primitive(f.terms) for f in want], name
        for f in got:
            assert all(type(c) is int for c in f.terms.values()), name
            assert math.gcd(*f.terms.values()) == 1, name


MAXIMAL_RANK_PAIRS = ["sl2,so2", "sl3,so3", "sp4,gl2", "sl4,so4", "sp6,gl3",
                      "so5,so2+so3", "so6,so3+so3", "so7,so3+so4", "so8,so4+so4"]


def test_maximal_rank_pairs_are_those_of_white_arrow_free_diagrams(pair):
    # the cross-check below covers every maximal-rank tier-1 and ladder pair
    listed = [p for p in dict.fromkeys(TIER1_PAIRS + LADDER_PAIRS) if pair(p).maximal_rank]
    assert listed == MAXIMAL_RANK_PAIRS[:4]
    for name in TIER1_PAIRS + LADDER_PAIRS + MAXIMAL_RANK_PAIRS + ["sl2,gl1", "so8,gl4"]:
        d = pair(name).satake
        assert pair(name).maximal_rank == (not d.arrows and "b" not in d.colors), name


@pytest.mark.parametrize("name", MAXIMAL_RANK_PAIRS)
def test_odd_block_tops_match_the_weight_echelon_route(name, pair, monkeypatch):
    # the cross-check of the odd-block route: on maximal-rank pairs its tops
    # are the primitive weight-echelon tops of the classical invariants,
    # term for term and in order, and it builds no classical invariant
    pr = pair(name)
    integral = [P(p.nvars, linalg._primitive(p.terms))
                for p in classical_invariants(pr).polys]
    want = [linalg._primitive(p.terms) for p in _weight_echelon_tops(integral, pr.grading)]
    monkeypatch.setattr(invariants, "classical_invariants", None)
    monkeypatch.setattr(invariants, "_weight_echelon_tops", None)
    got = contraction_invariants(pr).polys
    assert [p.terms for p in got] == want


@pytest.mark.parametrize("name", ["sl3,so3", "sp4,gl2", "so6,so3+so3"])
def test_odd_block_route_rejects_a_perturbed_dual(name, pair, monkeypatch):
    # the symbolic pool that nonmax and nreg use: adding a third of the
    # second odd dual to the first keeps X1 in g1 but breaks its
    # equivariance; verify_central must catch the tops (summary's pointwise
    # route is test_pointwise_route_rejects_a_perturbed_dual)
    real = invariants._dual_matrices

    def perturbed(mats):
        duals = real(mats)
        first = [[x + Q(1, 3) * y for x, y in zip(r, s)]
                 for r, s in zip(duals[0], duals[1])]
        return [first] + duals[1:]

    checked = []
    verify = invariants.verify_central
    monkeypatch.setattr(invariants, "_dual_matrices", perturbed)
    monkeypatch.setattr(invariants, "verify_central",
                        lambda q, f: checked.append(f) or verify(q, f))
    with pytest.raises(AssertionError, match="not central"):
        contraction_invariants(pair(name))
    assert checked and not verify(pair(name).contraction, checked[-1])


# the pairs whose summary reads index(k) off pointwise rows: the tier-1 and
# ladder pairs that take the route, then five more, three with a Pfaffian
POINTWISE_PAIRS = ["sl2,so2", "sl3,so3", "sl3,gl2", "sp4,gl2", "so5,so4", "sl4,so4",
                   "sl5,gl3", "sl4,gl2", "so6,so5", "so7,so6", "so6,so3+so3", "so8,so7"]


def test_pointwise_route_pairs(pair):
    # sl4,sp4 has no split of its matrix positions, the raw tops of
    # sp4,sp2+sp2 are dependent, and the diagonal kinds are not sl, sp or so
    taken = []
    for name in dict.fromkeys(TIER1_PAIRS + LADDER_PAIRS + POINTWISE_PAIRS):
        pw = invariants.pointwise_invariants(pair(name))
        if pw is not None and pw.certify_contraction() is not None:
            taken.append(name)
    assert sorted(taken) == sorted(POINTWISE_PAIRS)
    assert invariants.pointwise_invariants(pair("sl4,sp4")) is None
    assert invariants.pointwise_invariants(pair("sl3+sl3,diag")) is None
    assert invariants.pointwise_invariants(pair("sp4,sp2+sp2")) is not None


def _proportional(rows, want) -> bool:
    """Each row a nonzero multiple of the matching row of ``want``."""
    for row, w in zip(rows, want, strict=True):
        i = next(i for i, x in enumerate(w) if x)
        ratio = Q(row[i]) / w[i]
        if not ratio or any(x != ratio * y for x, y in zip(row, w, strict=True)):
            return False
    return True


@pytest.mark.parametrize("name", POINTWISE_PAIRS)
def test_pointwise_rows_match_the_symbolic_tops(name, pair):
    # the cross-check of the pointwise route: its widths are the odd degrees
    # of the raw tops of the classical invariants, which verify_central
    # checks, and its rows are their gradients up to one scalar per row
    pr = pair(name)
    pw = invariants.pointwise_invariants(pr)
    gens = classical_invariants(pr).polys
    tops = [top_component(f, pr.grading) for f in gens]
    k = pr.contraction
    assert all(verify_central(k, t) for t in tops), name
    assert pw.widths == [t.weighted_degree(set(pr.grading.odd_idx)) for t in tops]
    rng = random.Random(5)
    for _ in range(2):
        xi = sample_covector(k.dim, rng, bound=50)
        assert _proportional(pw.top_rows(xi), [t.grad_at(xi) for t in tops]), name
        assert _proportional(pw.rows(xi), [f.grad_at(xi) for f in gens]), name


@pytest.mark.parametrize("name", ["so6,so5", "so6,so3+so3", "so8,so7"])
def test_pointwise_pfaffian_row(name, pair):
    # the Pfaffian's row comes from d e_n = 2 Pf dPf, divided exactly in Q[s]
    pr = pair(name)
    pw = invariants.pointwise_invariants(pr)
    assert pw.gens[-1] == (pr.realization.size // 2, True)
    pf = classical_invariants(pr).polys[-1]
    top = top_component(pf, pr.grading)
    assert pf.degree() == pr.realization.size // 2
    xi = sample_covector(pr.g.dim, random.Random(2), bound=10 ** 6)
    assert _proportional(pw.top_rows(xi)[-1:], [top.grad_at(xi)])
    assert _proportional(pw.rows(xi)[-1:], [pf.grad_at(xi)])


@pytest.mark.parametrize("name", ["sl3,so3", "so5,so4", "sl5,gl3", "so6,so5"])
def test_pointwise_route_rejects_a_perturbed_dual(name, pair, monkeypatch):
    # adding a third of the second dual (even, like the first) to the first
    # keeps the even duals inside the classes; the equivariance certificate
    # must fail
    real = invariants._dual_matrices

    def perturbed(mats):
        duals = real(mats)
        first = [[x + Q(1, 3) * y for x, y in zip(r, s)]
                 for r, s in zip(duals[0], duals[1])]
        return [first] + duals[1:]

    monkeypatch.setattr(invariants, "_dual_matrices", perturbed)
    with pytest.raises(AssertionError, match="not equivariant"):
        invariants.pointwise_invariants(pair(name))


def test_position_classes(pair):
    # even entries inside the classes, odd ones across; a position no
    # matrix touches joins the first class
    diag = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    swap = [[0, 2, 0], [2, 0, 0], [0, 0, 0]]
    corner = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert invariants._position_classes([diag, swap], {1}) == (2, 1)
    # (0, 1) both inside a class and across; an odd entry on the diagonal
    assert invariants._position_classes([corner, swap], {1}) is None
    assert invariants._position_classes([swap, diag], {1}) is None
    # the duals keep the split of the basis matrices
    for name, sizes in [("sl5,gl3", (2, 3)), ("so7,so6", (6, 1)), ("sp4,sp2+sp2", (2, 2))]:
        real = pair(name).realization
        odd = set(pair(name).grading.odd_idx)
        assert invariants._position_classes(real.matrices, odd) in (sizes, sizes[::-1])
        assert (invariants._position_classes(_dual_matrices(real.matrices), odd)
                == invariants._position_classes(real.matrices, odd))


def test_poly_sqrt_and_exact_quotient():
    assert invariants._poly_sqrt([9, 12, 4]) == [3, 2]       # (2s + 3)^2
    assert invariants._poly_sqrt([0, 0]) is None
    for bad in ([1, 0, 2], [1, 1]):
        with pytest.raises(AssertionError, match="not a square"):
            invariants._poly_sqrt(bad)
    assert invariants._exact_quotient([6, 7, 2], [3, 2]) == [2, 1]
    assert invariants._exact_quotient([1, 2], [2]) == [Q(1, 2), 1]
    with pytest.raises(AssertionError, match="inexact"):
        invariants._exact_quotient([1, 0, 1], [1, 1])


def test_classical_invariants_are_refused_on_a_maximal_rank_pair(pair):
    pr = pair("sl3,so3")
    with pytest.raises(ValueError, match="maximal-rank"):
        contraction_invariants(pr, classical=classical_invariants(pr))


def test_top_component(pair):
    pr = pair("sl2,so2")
    f = P.parse("u^2-v^2-w^2", pr.g.labels)
    assert top_component(f, pr.grading) == P.parse("-v^2-w^2", pr.g.labels)
    odd_only = P.parse("v^2+w^2", pr.g.labels)
    assert top_component(odd_only, pr.grading) == odd_only
    even_only = P.parse("u^2", pr.g.labels)
    assert top_component(even_only, pr.grading) == even_only
    with pytest.raises(ValueError):
        top_component(Poly.zero(3), pr.grading)
    with pytest.raises(ValueError):
        top_component(P.parse("u^2+v", pr.g.labels), pr.grading)


def test_top_of_central_is_central_in_contraction(pair):
    for name in ["sl3,so3", "sp4,sp2+sp2", "sl2+sl2,diag"]:
        pr = pair(name)
        k = contract(pr.g, pr.grading)
        for f in classical_invariants(pr).polys:
            assert verify_central(k, top_component(f, pr.grading))


def test_verify_central(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    assert verify_central(k, P.parse("v^2+w^2", k.labels))
    assert not verify_central(k, P.parse("u", k.labels))
    assert verify_central(k, Poly.const(3, 7))


def test_g1_invariants_check(pair):
    # centrality restricted to the odd coordinates
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    odd = pr.grading.odd_idx
    for i in odd:
        assert verify_central(k, Poly.var(k.dim, i), odd)
    assert verify_central(k, P.parse("v^2+w^2", k.labels), odd)
    assert not verify_central(k, P.parse("u", k.labels), odd)


# ----------------------------------------------------------------------
# the contraction invariant pool
# ----------------------------------------------------------------------

def test_contraction_invariants_full_for_supported_pairs(pair):
    for name in ["sl2,so2", "sl3,so3", "sl3,gl2", "so5,so4", "sp4,sp2+sp2",
                 "sl2+sl2,diag", "sl3+sl3,diag"]:
        pr = pair(name)
        inv = contraction_invariants(pr)
        assert inv.meta["full"], name
        assert inv.meta["sum_degrees"] == inv.meta["b"], name
        assert len(inv.polys) == pr.rank_g
        assert all(verify_central(inv.algebra, p) for p in inv.polys)


def test_contraction_invariants_commute(pair):
    pr = pair("sp4,sp2+sp2")
    inv = contraction_invariants(pr)
    assert pairwise_commuting(inv.algebra, inv.polys)[0]


def test_diagonal_pool_contains_a_mixed_generator(pair):
    # the pure top components of the two factor Casimirs coincide; the
    # echelon must produce a generator that involves even coordinates
    pr = pair("sl2+sl2,diag")
    inv = contraction_invariants(pr)
    even = set(pr.grading.even_idx)
    assert any(p.weighted_degree(even) > 0 for p in inv.polys)


def test_index_fallback_without_samples(pair):
    # with no sampled point the certificate has no bounds, and the index
    # comes from the elimination
    pr = pair("sl3,so3")
    inv = contraction_invariants(pr, trials=0)
    assert inv.meta["certified_rank"] == 0
    assert inv.meta["index"] == index(contract(pr.g, pr.grading)) == 2
    assert inv.meta["b"] == 5


def test_invariant_set_record(pair):
    inv = contraction_invariants(pair("sl2,so2"))
    assert [p.to_text(inv.algebra.labels) for p in inv.polys] == ["v^2+w^2"]
    assert degrees(inv) == [2]
    assert inv.meta["full"] is True


# ----------------------------------------------------------------------
# invariants of the abelian ideal
# ----------------------------------------------------------------------

def test_nreg_subalgebra_maximal_rank(pair):
    pr = pair("sl2,so2")
    inv = nreg_subalgebra(pr)
    k = inv.algebra
    assert [p.to_text(k.labels) for p in inv.polys] == ["v", "w"]
    assert inv.meta["count"] == 2 == inv.meta["b"]
    assert inv.meta["m"] == 0


def test_nreg_subalgebra_diagonal(pair):
    pr = pair("sl2+sl2,diag")
    inv = nreg_subalgebra(pr)
    assert inv.meta["m"] == 1
    assert inv.meta["count"] == pr.d1 + 1 == 4 == inv.meta["b"]
    assert inv.meta["certified_rank"] == 4
    assert pairwise_commuting(inv.algebra, inv.polys)[0]
    assert all(verify_central(inv.algebra, p, pr.grading.odd_idx)
               for p in inv.polys)


def test_nreg_subalgebra_row1_unbalanced(pair):
    pr = pair("sl3,gl2")
    inv = nreg_subalgebra(pr)
    assert inv.meta["m"] == 1
    assert inv.meta["count"] == pr.d1 + 1 == inv.meta["b"]


def test_nreg_rejects_black_nodes(pair):
    with pytest.raises(UnsupportedPairError, match="black"):
        nreg_subalgebra(pair("sp4,sp2+sp2"))


def test_nreg_transcendence_identity(pair):
    # for pairs without black nodes the Cartan centralizer is toral and
    # dim g1 + dim r = b(k)
    for name in ["sl2,so2", "sl3,so3", "sl3,gl2", "sl2+sl2,diag",
                 "sl3+sl3,diag"]:
        pr = pair(name)
        assert pr.satake.is_n_regular()
        k = contract(pr.g, pr.grading)
        r = centralizer_of_cartan(pr)
        assert pr.d1 + len(r) == b_value(k), name


# ----------------------------------------------------------------------
# noncommutativity witnesses
# ----------------------------------------------------------------------

def test_witness_found_for_quaternionic_pair(pair):
    pr = pair("sp4,sp2+sp2")
    out = noncommutativity_witness(pr, degree_bound=2)
    assert out is not None
    f, g, br = out
    k = contract(pr.g, pr.grading)
    assert not br.is_zero()
    assert poisson_bracket(k, f, g) == br
    assert verify_central(k, f, pr.grading.odd_idx)
    assert verify_central(k, g, pr.grading.odd_idx)


def test_witness_absent_for_commutative_cases(pair):
    assert noncommutativity_witness(pair("sl2,so2"), degree_bound=3) is None
    assert noncommutativity_witness(pair("sl2+sl2,diag"), degree_bound=2) is None
    assert noncommutativity_witness(pair("sp4,sp2+sp2"), degree_bound=0) is None


def _double_loop_witness(pr, degree_bound):
    """Reference: the graded kernel candidates, bracketed pair by pair with
    ``poisson_bracket`` in lexicographic order.  Returns the candidates and
    the first (f, g, {f, g}) with a nonzero bracket, or None."""
    k = pr.contraction
    candidates = []
    for d in range(1, degree_bound + 1):
        monos = list(invariants._monomials(k.dim, d))
        row_index, mat_rows = {}, []
        for e_i in pr.grading.odd_idx:
            for c, mono in enumerate(monos):
                br = bracket_with_coordinate(k, e_i, Poly(k.dim, {mono: Q(1)}))
                for out_e, coeff in br.terms.items():
                    key = (e_i, out_e)
                    if key not in row_index:
                        row_index[key] = len(mat_rows)
                        mat_rows.append({})
                    mat_rows[row_index[key]][c] = coeff
        for kv in linalg.kernel(mat_rows, range(len(monos))):
            candidates.append(Poly(k.dim, {monos[c]: x for c, x in kv.items()}))
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            br = poisson_bracket(k, candidates[i], candidates[j])
            if not br.is_zero():
                return candidates, (candidates[i], candidates[j], br)
    return candidates, None


@pytest.mark.parametrize("name", ["sp4,sp2+sp2", "sl4,so4", "sl3+sl3,diag", "sp6,gl3"])
def test_witness_matches_double_loop(name, pair):
    pr = pair(name)
    _, want = _double_loop_witness(pr, 2)
    assert (want is None) == (name != "sp4,sp2+sp2")
    assert noncommutativity_witness(pr, degree_bound=2) == want


@pytest.mark.parametrize("name, brackets", [
    ("sl4,so4", 0), ("sp6,gl3", 0), ("sp4,sp2+sp2", 1), ("sl3+sl3,diag", 1)])
def test_witness_brackets_only_candidates_with_an_even_variable(name, brackets,
                                                               pair, monkeypatch):
    # polynomials in the odd coordinates commute in k; only a kernel with a
    # candidate that has an even variable goes to pairwise_commuting
    pr = pair(name)
    candidates, _ = _double_loop_witness(pr, 2)
    even = set(pr.grading.even_idx)
    mixed = [f for f in candidates if any(e[i] for e in f.terms for i in even)]
    assert bool(mixed) == bool(brackets)
    calls = []
    monkeypatch.setattr(invariants, "pairwise_commuting",
                        lambda q, polys: calls.append(polys) or pairwise_commuting(q, polys))
    noncommutativity_witness(pr, degree_bound=2)
    assert len(calls) == brackets


def test_witness_brackets_through_pairwise_commuting(pair, monkeypatch):
    pr = pair("sl4,so4")
    k = pr.contraction
    candidates, _ = _double_loop_witness(pr, 2)
    counts = {"poisson_bracket": 0, "bracket_with_coordinate": 0}
    for module in (poisson, invariants):
        for fname in counts:
            real = getattr(module, fname, None)
            if real is None:
                continue

            def counting(*args, _real=real, _name=fname):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, fname, counting)
    assert noncommutativity_witness(pr, degree_bound=2) is None
    matrix_build = len(pr.grading.odd_idx) * sum(
        len(list(invariants._monomials(k.dim, d))) for d in (1, 2))
    assert counts["poisson_bracket"] == 0
    assert counts["bracket_with_coordinate"] <= matrix_build + len(candidates) * k.dim


def test_witness_budget_cap(pair):
    from z2poisson import BudgetError
    with pytest.raises(BudgetError):
        noncommutativity_witness(pair("sl2,so2"), degree_bound=2, max_dim=2)
