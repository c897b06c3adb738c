"""Acceptance gate: one test per criterion, each printing a pass/fail line
and holding to its stated runtime budget.  All expected values are exact."""

import random
import time
from fractions import Fraction as Q

from z2poisson import (PairId, Poly, build_pair, contract, contraction_invariants,
                       index, is_regular, jacobian_rank_at, mf_family,
                       noncommutativity_witness, nreg_subalgebra,
                       pairwise_commuting, parse_pair_name, poisson_bracket,
                       satake_of)
from z2poisson.analysis import (demonstrate_nonmaximality, verify_dim_stab,
                                verify_main_combinatorics)
from z2poisson.structure import sample_covector

from oracles import poly_eval

INDEX_PAIRS = ["sl2,so2", "sl3,so3", "sl3,gl2", "sl4,sp4", "so5,so4",
               "sp4,sp2+sp2", "sl2+sl2,diag", "sl3+sl3,diag"]


def report(number: int, label: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS — {label} [{elapsed:.2f}s / {budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_table_reproduction():
    """Every catalog family with the codim-3 property, over all legal
    parameters with at most 8 nodes: rank column and codim-3 flag."""
    t0 = time.monotonic()
    cases: list[tuple[PairId, int]] = []
    for n in range(2, 10):                      # A-type block pairs
        for k in range(1, (n - 1) // 2 + 1):
            if k < n - k:
                cases.append((PairId("sl_gl", (n, k)), k))
    for n in range(2, 5):                       # quaternionic A-type
        cases.append((PairId("sl_sp", (n,)), n - 1))
    for n in range(2, 4):                       # odd orthogonal-unitary rows
        cases.append((PairId("so_gl", (2 * n + 1,)), n))
    for n in range(5, 18):                      # rank-one orthogonal rows
        if n // 2 <= 8:
            cases.append((PairId("so_so", (1, n - 1)), 1))
    for n in range(2, 9):                       # symplectic block pairs
        for k in range(1, n // 2 + 1):
            cases.append((PairId("sp_sp", (n, k)), k))
    cases += [(PairId("e6_f4"), 2), (PairId("e6_so10_t1"), 2),
              (PairId("f4_so9"), 1)]
    assert len(cases) >= 50
    for pid, want_rank in cases:
        d = satake_of(pid)
        assert d.rank() == want_rank, pid
        assert d.has_codim3(), pid
    report(1, f"rank and codim-3 on {len(cases)} catalog diagrams", t0, 1.0)


def test_criterion_2_negative_classification():
    """Maximal-rank diagrams and the known no-construction families have
    trivial nodes."""
    t0 = time.monotonic()
    from z2poisson import parse_satake
    maximal_rank = ["A1 colors=w arrows=[]", "A2 colors=ww arrows=[]",
                    "A3 colors=www arrows=[]", "A4 colors=wwww arrows=[]",
                    "B2 colors=ww arrows=[]", "G2 colors=ww arrows=[]"]
    for text in maximal_rank:
        assert not parse_satake(text).has_codim3(), text
    leftovers = [PairId("so_gl", (4,)),          # smallest even half-spin case
                 PairId("so_so", (2, 5)),        # smallest split-orthogonal case
                 PairId("e7_e6_t1"), PairId("e7_so12_sl2"), PairId("e8_e7_sl2")]
    for pid in leftovers:
        assert not satake_of(pid).has_codim3(), pid
    report(2, "codim-3 fails on all 11 negative diagrams", t0, 1.0)


def test_criterion_3_predicate_equivalence():
    """Exhaustive enumeration up to 6 nodes: the local trivial-node test and
    the subdiagram-closure test agree with zero exceptions."""
    t0 = time.monotonic()
    rep = verify_main_combinatorics(max_nodes=6)
    assert rep.passed, rep.to_markdown()
    report(3, rep.checks[0].note, t0, 60.0)


def test_criterion_4_index_theorem():
    """index(contraction) equals the rank of the ambient algebra, by exact
    symbolic elimination, for all supported pairs of rank at most 4."""
    t0 = time.monotonic()
    for name in INDEX_PAIRS:
        pr = build_pair(name)
        k = contract(pr.g, pr.grading)
        assert index(k) == pr.rank_g, name
    report(4, f"symbolic index on {len(INDEX_PAIRS)} contractions", t0, 300.0)


def test_criterion_5_argument_shift_commutativity(pair):
    """Shift families of the central generator pools commute symbolically:
    every pairwise bracket is identically zero."""
    t0 = time.monotonic()
    rng = random.Random(2024)
    for name in INDEX_PAIRS:
        pr = pair(name)
        k = contract(pr.g, pr.grading)
        inv = contraction_invariants(pr)
        assert inv.meta["full"], name
        xi = sample_covector(k.dim, rng, bound=97)
        fam = mf_family(k, inv.polys, xi)
        ok, witness = pairwise_commuting(k, fam.polys())
        assert ok, (name, witness)
    report(5, f"symbolic commutativity for {len(INDEX_PAIRS)} shift families",
           t0, 300.0)


def test_criterion_6_shift_family_dimension(pair):
    """At a sampled regular direction, the shift family's Jacobian rank
    reaches (dim + index)/2 of the contraction; maximality itself fails for
    the maximal-rank pairs and the failure is demonstrated explicitly."""
    t0 = time.monotonic()
    rng = random.Random(11)
    for name, b in [("sl2,so2", 2), ("sl3,so3", 5)]:
        pr = pair(name)
        k = contract(pr.g, pr.grading)
        inv = contraction_invariants(pr)
        xi = None
        for _ in range(50):
            cand = sample_covector(k.dim, rng, bound=999)
            if is_regular(k, cand):
                xi = cand
                break
        assert xi is not None
        fam = mf_family(k, inv.polys, xi)
        got = max(jacobian_rank_at(fam.polys(), sample_covector(k.dim, rng, 999))
                  for _ in range(8))
        assert got == b, name
        rep = demonstrate_nonmaximality(parse_pair_name(name))
        assert rep.passed, rep.to_markdown()
    report(6, "shift families reach full dimension but not maximality",
           t0, 60.0)


def test_criterion_7_nreg_subalgebra(pair):
    """The abelian-ideal invariant construction succeeds where the diagram
    has no black nodes, and a noncommutativity witness exists where it does."""
    t0 = time.monotonic()
    inv = nreg_subalgebra(pair("sl2,so2"))
    assert inv.meta["m"] == 0 and inv.meta["count"] == 2 == inv.meta["b"]
    inv2 = nreg_subalgebra(pair("sl2+sl2,diag"))
    assert inv2.meta["m"] == 1
    assert inv2.meta["count"] == 4 == inv2.meta["b"]
    assert inv2.meta["certified_rank"] == 4
    out = noncommutativity_witness(pair("sp4,sp2+sp2"), degree_bound=2)
    assert out is not None
    f, g, br = out
    assert not br.is_zero()
    report(7, "invariant subalgebras and the degree-2 witness", t0, 300.0)


def test_criterion_8_stabilizer_dimension_formula(pair):
    """The kernel of the contraction's Kirillov form splits as orbit
    codimension plus restricted stabilizer dimension, at 20 random points
    per supported pair with dim at most 21."""
    t0 = time.monotonic()
    for name in INDEX_PAIRS:
        pr = pair(name)
        assert pr.g.dim <= 21
        rep = verify_dim_stab(pr.pair, samples=20, seed=8)
        assert rep.passed, (name, rep.to_markdown())
    report(8, f"20-point stabilizer identity on {len(INDEX_PAIRS)} pairs",
           t0, 120.0)


def test_criterion_9_property_suites(pair):
    """Poisson axioms, shift symmetry, grading closure, and the Jacobi
    identity: 100 exact randomized cases each under a fixed seed."""
    t0 = time.monotonic()
    rng = random.Random(314159)

    def rand_homog(nvars, deg, terms=3):
        p = Poly.zero(nvars)
        for _ in range(terms):
            cuts = sorted(rng.randint(0, deg) for _ in range(nvars - 1))
            exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
            p = p + Poly(nvars, {exps: Q(rng.randint(-9, 9))})
        return p

    def rand_poly(nvars, max_deg=3, terms=3):
        p = Poly.zero(nvars)
        for _ in range(terms):
            p = p + rand_homog(nvars, rng.randint(0, max_deg), 1)
        return p

    # Poisson axioms on the contraction of (sl3, so3): 8 variables
    pr = pair("sl3,so3")
    k = contract(pr.g, pr.grading)
    for _ in range(100):
        f = rand_poly(k.dim, 3)
        g = rand_poly(k.dim, 3)
        h = rand_poly(k.dim, 2)
        fg = poisson_bracket(k, f, g)
        assert fg == -poisson_bracket(k, g, f)
        assert poisson_bracket(k, f, g * h) == \
            fg * h + g * poisson_bracket(k, f, h)
        jac = (poisson_bracket(k, f, poisson_bracket(k, g, h))
               + poisson_bracket(k, g, poisson_bracket(k, h, f))
               + poisson_bracket(k, h, poisson_bracket(k, f, g)))
        assert jac.is_zero()

    # shift symmetry on homogeneous inputs
    done = 0
    while done < 100:
        p = rand_homog(4, rng.randint(1, 4))
        if p.is_zero():
            continue
        done += 1
        d = p.degree()
        xi = [rng.randint(-7, 7) for _ in range(4)]
        mu = [rng.randint(-7, 7) for _ in range(4)]
        left = p.shift_components(xi)
        right = p.shift_components(mu)
        for j in range(d + 1):
            assert poly_eval(left[j], mu) == poly_eval(right[d - j], xi)

    # grading closure and Jacobi on every constructed algebra
    for name in INDEX_PAIRS:
        prx = pair(name)
        prx.grading.validate(prx.g)
        kx = contract(prx.g, prx.grading)
        n = kx.dim
        for _ in range(100):
            i, j, l = (rng.randrange(n) for _ in range(3))
            total = [Q(0)] * n
            for a, b_, c in ((i, j, l), (j, l, i), (l, i, j)):
                inner = kx.bracket_basis(a, b_)
                for t, coeff in inner.items():
                    for s, dcf in kx.bracket_basis(t, c).items():
                        total[s] += coeff * dcf
            assert all(x == 0 for x in total)
    report(9, "axiom suites: 100 exact cases per property", t0, 60.0)
