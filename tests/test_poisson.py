import random
import time
from fractions import Fraction as Q

import pytest

from z2poisson import (BudgetError, GenericityError, LieAlgebra, Poly,
                       certified_index, structure,
                       contract, contraction_invariants, jacobian_rank_at,
                       mf_family, pairwise_commuting, poisson,
                       poisson_bracket, shift, stabilizer, trdeg_lower_bound,
                       verify_central)
from z2poisson.invariants import classical_invariants
from z2poisson.poisson import bracket_with_coordinate, gradients
from z2poisson.structure import sample_covector

from oracles import b_value, bracket, linear, poly_eval


def sl2_efh():
    # [e,f] = h, [e,h] = -2e, [f,h] = 2f
    return LieAlgebra(("e", "f", "h"),
                      {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})


def rand_poly(rng, nvars, max_deg=3, terms=4):
    p = Poly.zero(nvars)
    for _ in range(terms):
        deg = rng.randint(0, max_deg)
        cuts = sorted(rng.randint(0, deg) for _ in range(nvars - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
        p = p + Poly(nvars, {exps: Q(rng.randint(-5, 5))})
    return p


# ----------------------------------------------------------------------
# the bracket
# ----------------------------------------------------------------------

def test_bracket_on_coordinates_is_structure_constants():
    g = sl2_efh()
    e, f, h = (Poly.var(3, i) for i in range(3))
    assert poisson_bracket(g, e, f) == h
    assert poisson_bracket(g, e, h) == -2 * e
    assert poisson_bracket(g, f, e) == -h


def test_bracket_worked_example(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    casimir = Poly.parse("v^2+w^2", k.labels)
    u = Poly.parse("u", k.labels)
    assert poisson_bracket(k, casimir, u).is_zero()
    # the odd quadratic is central only after contraction
    v = Poly.parse("v", k.labels)
    assert poisson_bracket(k, casimir, v).is_zero()
    assert not poisson_bracket(pr.g, casimir, v).is_zero()


def test_bracket_axioms_randomized(pair):
    # antisymmetry, Leibniz, Jacobi: 100 exact cases each under a fixed seed
    pr = pair("sl3,so3")
    k = contract(pr.g, pr.grading)
    rng = random.Random(99)
    for _ in range(100):
        f = rand_poly(rng, k.dim, max_deg=2, terms=3)
        g = rand_poly(rng, k.dim, max_deg=2, terms=3)
        h = rand_poly(rng, k.dim, max_deg=2, terms=2)
        fg = poisson_bracket(k, f, g)
        assert fg == -poisson_bracket(k, g, f)
        assert poisson_bracket(k, f, g * h) == fg * h + g * poisson_bracket(k, f, h)
        jac = (poisson_bracket(k, f, poisson_bracket(k, g, h))
               + poisson_bracket(k, g, poisson_bracket(k, h, f))
               + poisson_bracket(k, h, poisson_bracket(k, f, g)))
        assert jac.is_zero()


def test_bracket_with_coordinate_agrees_with_generic(pair):
    # {x_i, f}(xi) is row i of the Kirillov form at xi against df(xi)
    pr = pair("sp4,sp2+sp2")
    k = contract(pr.g, pr.grading)
    rng = random.Random(5)
    points = random.Random(6)
    for _ in range(20):
        f = rand_poly(rng, k.dim, max_deg=2, terms=3)
        i = rng.randrange(k.dim)
        xi = sample_covector(k.dim, points, bound=50)
        row = k.kirillov_at(xi)[i]
        assert poly_eval(bracket_with_coordinate(k, i, f), xi) == \
            sum(a * b for a, b in zip(row, f.grad_at(xi)))


def _scanning_bracket_with_coordinate(q, i, f):
    """Reference: {x_i, f} with coordinate i's row scanned out of ``sc``."""
    row = [(j, -1, entry) for j in range(i) if (entry := q.sc.get((j, i)))]
    row += [(j, 1, entry) for j in range(i + 1, q.dim) if (entry := q.sc.get((i, j)))]
    out = {}
    for e, c in f.terms.items():
        for j, sign, entry in row:
            p = e[j]
            if not p:
                continue
            base = list(e)
            base[j] -= 1
            for k, ck in entry.items():
                base[k] += 1
                key = tuple(base)
                base[k] -= 1
                out[key] = out.get(key, 0) + sign * c * p * ck
    return Poly(q.dim, {e: c for e, c in out.items() if c})


@pytest.mark.parametrize("name", ["sp4,sp2+sp2", "sl4,so4"])
def test_bracket_with_coordinate_matches_scan_term_for_term(name, pair):
    pr = pair(name)
    rng = random.Random(17)
    for q in (pr.g, pr.contraction):
        for _ in range(30):
            f = rand_poly(rng, q.dim, max_deg=3, terms=5)
            i = rng.randrange(q.dim)
            got = bracket_with_coordinate(q, i, f)
            want = _scanning_bracket_with_coordinate(q, i, f)
            assert list(got.terms.items()) == list(want.terms.items())


def test_bracket_variable_count_mismatch():
    g = sl2_efh()
    with pytest.raises(ValueError, match="variable-count"):
        poisson_bracket(g, Poly.var(4, 0), Poly.var(4, 1))


def test_bracket_budget():
    g = sl2_efh()
    with pytest.raises(BudgetError):
        poisson_bracket(g, Poly.var(3, 0) ** 150, Poly.var(3, 1) ** 150)


def test_bracket_matches_pointwise_kirillov_pairing(pair):
    # {f1,f2}(xi) equals the Kirillov pairing of the two gradients at xi
    pr = pair("sl3,gl2")
    k = contract(pr.g, pr.grading)
    rng = random.Random(12)
    for _ in range(10):
        f = rand_poly(rng, k.dim, max_deg=2, terms=3)
        g = rand_poly(rng, k.dim, max_deg=2, terms=3)
        xi = sample_covector(k.dim, rng, bound=50)
        br = poly_eval(poisson_bracket(k, f, g), xi)
        df = f.grad_at(xi)
        dg = g.grad_at(xi)
        lie = bracket(k, df, dg)
        assert br == sum(a * b for a, b in zip(lie, xi))


# ----------------------------------------------------------------------
# differentials and shifts
# ----------------------------------------------------------------------

def test_differential_of_coordinate_is_basis_vector():
    rng = random.Random(3)
    for _ in range(5):
        xi = [rng.randint(-9, 9) for _ in range(4)]
        assert Poly.var(4, 2).grad_at(xi) == [0, 0, 1, 0]


def test_differential_example(pair):
    k = contract(pair("sl2,so2").g, pair("sl2,so2").grading)
    f = Poly.parse("v^2+w^2", k.labels)
    assert f.grad_at([0, 1, 0]) == [0, 2, 0]


def test_shift_components(pair):
    k = contract(pair("sl2,so2").g, pair("sl2,so2").grading)
    f = Poly.parse("v^2+w^2", k.labels)
    comps = shift(f, [0, 1, 0])
    assert comps[0] == f
    assert comps[1] == Poly.parse("2*v", k.labels)
    assert len(comps) == 2          # the constant top coefficient is dropped
    assert [p.degree() for p in comps] == [2, 1]
    with pytest.raises(ValueError):
        shift(Poly.zero(3), [0, 1, 0])


def test_shift_budget():
    # the expansion of u^100 v^100 w^100 along (1,1,1) has 101^3 terms, over
    # the budget; a zero direction coordinate expands nothing, so the same
    # monomial along (1,1,0) creates 101^2 terms and stays inside it
    f = Poly(3, {(100, 100, 100): Q(1)})
    with pytest.raises(BudgetError, match="1030301 terms"):
        shift(f, [1, 1, 1])
    comps = shift(f, [1, 1, 0])
    assert len(comps) == 300
    assert sum(len(p.terms) for p in comps) == 101 ** 2


def test_shift_penultimate_equals_gradient_constant_one():
    # for homogeneous f the last retained shift component IS the
    # differential at the direction, with proportionality constant exactly 1
    rng = random.Random(8)
    for _ in range(30):
        deg = rng.randint(1, 4)
        p = Poly.zero(4)
        for _ in range(3):
            cuts = sorted(rng.randint(0, deg) for _ in range(3))
            exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
            p = p + Poly(4, {exps: Q(rng.randint(-5, 5))})
        if p.degree() < 1:
            continue
        xi = [rng.randint(-5, 5) for _ in range(4)]
        comps = p.shift_components(xi)
        assert comps[p.degree() - 1] == linear(p.grad_at(xi))


def test_mf_family(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    casimir = Poly.parse("v^2+w^2", k.labels)
    fam = mf_family(k, [casimir], [0, 1, 0])
    assert [p.to_text(k.labels) for p in fam.polys()] == ["v^2+w^2", "2*v"]
    ok, witness = pairwise_commuting(k, fam.polys())
    assert ok and witness is None


def test_mf_family_zero_direction(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    casimir = Poly.parse("v^2+w^2", k.labels)
    fam = mf_family(k, [casimir], [0, 0, 0])
    assert fam.polys() == [casimir]


def test_mf_family_semisimple_casimir(pair):
    g = pair("sl2,so2").g
    casimir = classical_invariants(pair("sl2,so2")).polys[0]
    fam = mf_family(g, [casimir], [3, 1, 2])
    assert len(fam.polys()) == 2
    assert pairwise_commuting(g, fam.polys())[0]


def test_mf_family_rejects_noncentral(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    with pytest.raises(ValueError, match="not central"):
        mf_family(k, [Poly.parse("u", k.labels)], [0, 1, 0])


def test_pairwise_commuting_witness():
    g = sl2_efh()
    e, f = Poly.var(3, 0), Poly.var(3, 1)
    ok, witness = pairwise_commuting(g, [e, f])
    assert not ok
    i, j, br = witness
    assert (i, j) == (0, 1)
    assert br == Poly.var(3, 2)
    assert pairwise_commuting(g, [e])[0]


def test_pairwise_commuting_witness_is_first_failing_pair(pair):
    # the witness is (i, j, poisson_bracket(q, p_i, p_j)) for the
    # lexicographically first pair whose bracket is nonzero
    pr = pair("sl3,so3")
    k = contract(pr.g, pr.grading)
    central = contraction_invariants(pr).polys
    rng = random.Random(5)
    for trial in range(6):
        polys = central + [rand_poly(rng, k.dim, max_deg=2, terms=3)
                           for _ in range(3)]
        rng.shuffle(polys)
        first = next(((i, j) for i in range(len(polys))
                      for j in range(i + 1, len(polys))
                      if not poisson_bracket(k, polys[i], polys[j]).is_zero()),
                     None)
        ok, witness = pairwise_commuting(k, polys)
        if first is None:
            assert ok and witness is None
            continue
        i, j = first
        assert not ok
        assert witness == (i, j, poisson_bracket(k, polys[i], polys[j])), trial


def test_pairwise_commuting_budget_before_any_bracket(monkeypatch):
    # every pair is checked against the budgets before the first bracket,
    # so a family that would fail early on a small pair still stops at the
    # oversized pair (exit 5 on the command line)
    def no_bracket(*args):
        raise AssertionError("a bracket was computed")

    monkeypatch.setattr(poisson, "bracket_with_coordinate", no_bracket)
    g = sl2_efh()
    e, f = Poly.var(3, 0), Poly.var(3, 1)
    big = Poly(3, {(a, b, 44 - a - b): 1 for a in range(45) for b in range(45 - a)})
    assert len(big.terms) ** 2 > poisson.TERM_BUDGET
    t0 = time.monotonic()
    with pytest.raises(BudgetError, match="terms"):
        pairwise_commuting(g, [e, f, big, big + e])
    with pytest.raises(BudgetError, match="degrees"):
        pairwise_commuting(g, [e ** 150, f ** 150])
    assert time.monotonic() - t0 < 1.0


# ----------------------------------------------------------------------
# ranks and regularity
# ----------------------------------------------------------------------

def test_jacobian_rank(pair):
    k = contract(pair("sl2,so2").g, pair("sl2,so2").grading)
    fam = [Poly.parse("v^2+w^2", k.labels), Poly.parse("2*v", k.labels)]
    assert jacobian_rank_at(fam, [0, 1, 1]) == 2 == b_value(k)
    assert jacobian_rank_at(fam + fam, [0, 1, 1]) == 2
    coords = [Poly.var(3, i) for i in range(3)]
    assert jacobian_rank_at(coords, [17, -4, 9]) == 3


def test_commuting_family_rank_bounded_by_b(pair):
    pr = pair("sl3,gl2")
    k = contract(pr.g, pr.grading)
    inv = contraction_invariants(pr)
    fam = mf_family(k, inv.polys, sample_covector(k.dim, random.Random(2), 99))
    rng = random.Random(7)
    b = b_value(k)
    for _ in range(5):
        assert jacobian_rank_at(fam.polys(), sample_covector(k.dim, rng, 999)) <= b


def test_trdeg_lower_bound():
    coords = [Poly.var(3, i) for i in range(3)]
    points = [[0, 0, 0], [1, 2, 3], [4, 5, 6]]
    assert trdeg_lower_bound(coords, points) == (3, [0, 0, 0])
    assert trdeg_lower_bound([], points) == (0, None)
    # the first point reaching the best rank is returned; the loop stops at
    # full rank, so later points are never drawn
    square = [Poly.parse("x^2", ["x"])]
    draws = iter([[0], [2], [3], None])
    assert trdeg_lower_bound(square, draws) == (1, [2])
    assert next(draws) == [3]


def test_certified_index(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    gen = Poly.parse("v^2+w^2", k.labels)
    assert certified_index(k, gradients([gen], [[0, 0, 0], [0, 1, 0]])) == (1, [0, 1, 0])
    # no positive rank, or a rank below the corank at its point: the bounds
    # do not meet, and no elimination decides instead
    with pytest.raises(GenericityError, match="rank"):
        certified_index(k, gradients([gen], [[0, 0, 0]]))
    with pytest.raises(GenericityError, match="does not close"):
        certified_index(k, [([1, 0, 0], [[0, 0, 1]])])


def regularity_via_differentials(q: LieAlgebra, free_gens: list[Poly], xi) -> bool:
    """Regularity test through the differentials of a free generating set of
    the Poisson centre: xi is regular iff the differentials at xi are
    linearly independent.

    Preconditions (asserted): the generators are central, there are
    index-many of them, and their degrees sum to b(q).  The index comes
    from the generators' own certificate (``certified_index``), whose rank
    is the index, so index-many generators are algebraically independent.
    The verdict is cross-checked against the Kirillov-kernel notion of
    regularity.
    """
    if not all(verify_central(q, g) for g in free_gens):
        raise ValueError("generator is not central")
    rng = random.Random(7)
    points = (sample_covector(q.dim, rng, bound=997) for _ in range(12))
    l, _ = certified_index(q, gradients(free_gens, points))
    if len(free_gens) != l:
        raise ValueError(f"need index-many generators: got {len(free_gens)}, want {l}")
    total = sum(p.degree() for p in free_gens)
    b = Q(q.dim + l, 2)
    if total != b:
        raise ValueError(f"degree sum {total} does not match b = {b}")
    verdict = jacobian_rank_at(free_gens, xi) == l
    if verdict != (len(stabilizer(q, xi)) == l):
        raise AssertionError(
            "differential criterion disagrees with the Kirillov-kernel test")
    return verdict


def test_regularity_via_differentials(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    gen = Poly.parse("v^2+w^2", k.labels)
    assert regularity_via_differentials(k, [gen], [0, 1, 0])
    assert not regularity_via_differentials(k, [gen], [1, 0, 0])
    # Kostant-style criterion on the semisimple algebra itself
    g = pr.g
    casimir = classical_invariants(pr).polys[0]
    assert regularity_via_differentials(g, [casimir], [0, 1, 0])


def test_regularity_preconditions(pair):
    pr = pair("sl2,so2")
    k = contract(pr.g, pr.grading)
    gen = Poly.parse("v^2+w^2", k.labels)
    with pytest.raises(ValueError, match="index-many"):
        regularity_via_differentials(k, [gen, gen], [0, 1, 0])
    with pytest.raises(ValueError, match="degree sum"):
        regularity_via_differentials(k, [gen * gen], [0, 1, 0])
    with pytest.raises(ValueError, match="not central"):
        regularity_via_differentials(k, [Poly.parse("u^2", k.labels)], [0, 1, 0])
    # no generators certify nothing, and nothing else supplies the index
    with pytest.raises(GenericityError, match="rank"):
        regularity_via_differentials(k, [], [0, 1, 0])


def test_regularity_via_differentials_needs_no_elimination(pair, monkeypatch):
    # the generators' own certificate closes the index, so the elimination
    # in `index` is never reached
    def no_elimination(q):
        raise AssertionError("index was eliminated")

    monkeypatch.setattr(structure, "index", no_elimination)
    pr = pair("sl3,so3")
    k = contract(pr.g, pr.grading)
    gens = contraction_invariants(pr).polys
    xi = sample_covector(k.dim, random.Random(4))
    assert regularity_via_differentials(k, gens, xi)
    assert not regularity_via_differentials(k, gens, [0] * k.dim)
