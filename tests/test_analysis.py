import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction as Q

import pytest

from z2poisson import (BudgetError, GenericityError, PairId, Poly,
                       UnsupportedPairError, analysis,
                       certified_index, classical_invariants, cli, diagram, index,
                       invariants, parse_pair_name, poisson, structure)
from z2poisson.analysis import (demonstrate_nonmaximality, report_to_json_text,
                                verify_dim_stab, verify_main_combinatorics,
                                verify_nreg, verify_summary)
from z2poisson.diagram import enumerate_valid_diagrams, satake_of
from z2poisson.poisson import gradients, pairwise_commuting

from test_invariants import LADDER_PAIRS, TIER1_PAIRS


def test_summary_sl2(pair):
    rep = verify_summary(PairId("sl_so", (2,)))
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "index(k) = rk g" in names
    assert "sum of generator degrees = b(k)" in names


def test_summary_all_supported_pairs():
    # every supported pair has ambient rank at most 4
    for name in ["sl3,so3", "sl3,gl2", "sl4,sp4", "so5,so4", "sp4,sp2+sp2",
                 "sl2+sl2,diag", "sl3+sl3,diag"]:
        rep = verify_summary(parse_pair_name(name))
        assert rep.passed, rep.to_markdown()


@pytest.mark.parametrize("name, dim_g1z, ind_g0z", [("so8,so7", 1, 3),
                                                    ("sl6,gl5", 1, 4),
                                                    ("so9,so2+so7", 2, 2),
                                                    ("sl7,so7", 6, 0)])
def test_summary_at_the_frontier(name, dim_g1z, ind_g0z):
    # g0^z is so6 and gl4: eliminating its index did not finish in minutes;
    # so9 (weight-echelon tops) and sl7 (odd-block tops) were the slowest
    # polynomial pools, and are read as rows at one point
    rep = verify_summary(parse_pair_name(name))
    assert rep.passed, rep.to_markdown()
    rows = {c.name: c.computed for c in rep.checks}
    assert rows["generic odd-centralizer dimension"] == dim_g1z
    assert rows["index of the generic even centralizer"] == ind_g0z


SMALL_G = ["sl2,so2", "sl3,so3", "sp4,gl2", "so5,so4"]


@pytest.mark.parametrize("name", SMALL_G)
def test_certified_index_of_g_matches_elimination(name, pair):
    # the summary's points: drawn from random.Random(seed) by sample_covector
    pr = pair(name)
    polys = classical_invariants(pr).polys
    eliminated = index(pr.g)
    assert eliminated == pr.rank_g
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        points = (structure.sample_covector(pr.g.dim, rng) for _ in range(6))
        ind, point = certified_index(pr.g, gradients(polys, points))
        # the bounds meet: Jacobian rank = Kirillov corank at the point
        assert ind == eliminated, (name, seed)
        assert len(structure.stabilizer(pr.g, point)) == ind
        # the pointwise rows of the same invariants, as summary reads them
        rows = invariants.pointwise_invariants(pr).rows
        points = (structure.sample_covector(pr.g.dim, random.Random(seed)) for _ in range(6))
        assert certified_index(pr.g, ((mu, rows(mu)) for mu in points)) == (ind, point)


@pytest.mark.parametrize("name", ["so5,so4", "sp4,gl2"])
def test_summary_does_not_eliminate_on_g(name, pair, monkeypatch):
    dims = []
    real = structure.index

    def recording(q):
        dims.append(q.dim)
        return real(q)

    for module in (analysis, invariants, poisson, structure):
        if hasattr(module, "index"):
            monkeypatch.setattr(module, "index", recording)
    rep = analysis.verify_summary(parse_pair_name(name))
    assert rep.passed
    assert "index(g) = rk g" in [c.name for c in rep.checks]
    assert dims == []     # nor on g0^z: its index is certified


def test_certified_index_of_g_refuses_the_zero_covector(pair):
    # no Jacobian rank at the zero covector, so the bounds cannot meet, and
    # no elimination decides instead
    pr = pair("sl3,so3")
    zero = [Q(0)] * pr.g.dim
    polys = classical_invariants(pr).polys
    with pytest.raises(GenericityError, match="rank"):
        certified_index(pr.g, gradients(polys, [zero]))


def test_summary_propagates_unsupported():
    with pytest.raises(UnsupportedPairError):
        verify_summary(PairId("e6_f4"))


def test_main_theorem_small_counts():
    counts = {2: (17, 13), 3: (65, 40), 4: (343, 191), 5: (1545, 712),
              6: (8755, 3580), 7: (50757, 17915)}
    for max_nodes, (total, codim3) in counts.items():
        rep = verify_main_combinatorics(max_nodes=max_nodes)
        assert rep.passed
        assert rep.checks[0].note == \
            f"{total} diagrams enumerated, {codim3} with codim-3"
    with pytest.raises(BudgetError):
        verify_main_combinatorics(max_nodes=9)


def test_main_at_its_cap():
    # the 8-node report as the suite wrote it when it built a diagram and
    # ran both predicate methods on every matching
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "main", "--max-nodes", "8", "--seed", "1"])
    assert code == 0
    (check,) = json.loads(out.getvalue())["checks"]
    assert check["note"] == "313621 diagrams enumerated, 99205 with codim-3"
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "069f17d629f87aa56f3c1dcfb819583fb3b0e4e32ed78d6e6354f311dde6cb32")


def test_main_reports_the_diagram_whose_predicates_disagree(monkeypatch):
    # flip the closure kernel on the 100th call: the suite calls it once per
    # diagram in enumeration order, and builds a diagram only to name it
    calls = itertools.count()
    closure = analysis._has_isolated_white
    monkeypatch.setattr(analysis, "_has_isolated_white",
                        lambda *args: closure(*args) != (next(calls) == 100))
    built = []
    monkeypatch.setattr(analysis, "SatakeDiagram",
                        lambda *args: built.append(args) or diagram.SatakeDiagram(*args))
    rep = verify_main_combinatorics(5)
    assert not rep.passed
    (check,) = rep.checks
    assert check.computed == [list(enumerate_valid_diagrams(5))[100].serialize()]
    assert check.note == "1545 diagrams enumerated, 712 with codim-3"
    assert len(built) == 1 and next(calls) == 1545


def test_dim_stab(pair):
    for name in ["sl2,so2", "sl3,so3", "sl2+sl2,diag"]:
        rep = verify_dim_stab(parse_pair_name(name), samples=10, seed=2)
        assert rep.passed, rep.to_markdown()


def test_dim_stab_builds_no_subalgebra(monkeypatch):
    # g0^beta and g0 enter only through the restricted Kirillov form
    calls = []
    real = structure._span_algebra
    monkeypatch.setattr(structure, "_span_algebra",
                        lambda *args: calls.append(args[2]) or real(*args))
    rep = verify_dim_stab(parse_pair_name("sp6,gl3"), samples=3)
    assert rep.passed
    assert len(calls) == 1 and len(calls[0]) == 21    # the realization of g


def test_nreg_suite():
    rep = verify_nreg(parse_pair_name("sl2+sl2,diag"))
    assert rep.passed
    with pytest.raises(UnsupportedPairError):
        verify_nreg(parse_pair_name("sp4,sp2+sp2"))


def test_verify_nreg_takes_no_bracket_of_its_family(monkeypatch):
    # every member of the nreg family is an odd coordinate or a verified
    # central top, so it commutes with no bracket taken.  The witness search
    # brackets its own candidates through the same function, so only the
    # calls on the nreg family are counted.
    pid = parse_pair_name("sl2+sl2,diag")
    family = invariants.nreg_subalgebra(structure.build_pair(pid)).polys
    calls = []

    def counting(q, polys):
        calls.append(list(polys))
        return pairwise_commuting(q, polys)

    monkeypatch.setattr(analysis, "pairwise_commuting", counting)
    monkeypatch.setattr(invariants, "pairwise_commuting", counting)
    rep = verify_nreg(pid)
    assert rep.passed
    assert next(c for c in rep.checks if c.name == "pairwise commuting").computed is True
    assert calls.count(family) == 0


@pytest.mark.parametrize("name", [p for p in TIER1_PAIRS
                                  if satake_of(parse_pair_name(p)).is_n_regular()])
def test_nreg_family_commutes_by_brackets(name, pair):
    # the oracle for taking no bracket: the family does commute
    inv = invariants.nreg_subalgebra(pair(name))
    assert pairwise_commuting(inv.algebra, inv.polys) == (True, None)


@pytest.mark.parametrize("run", [
    verify_nreg, demonstrate_nonmaximality, lambda p: verify_dim_stab(p, samples=3),
], ids=["nreg", "nonmax", "dimstab"])
def test_each_job_contracts_once(run, monkeypatch):
    # every binding of contract, so that a call from any layer is counted
    calls = []
    real = structure.contract

    def counting(g, grading):
        calls.append(g.dim)
        return real(g, grading)

    for module in (analysis, invariants, poisson, structure):
        if getattr(module, "contract", None) is real:
            monkeypatch.setattr(module, "contract", counting)
    rep = run(parse_pair_name("sl3,so3"))
    assert rep.passed
    assert calls == [8]


@pytest.mark.parametrize("name", ["so5,so4", "sl5,gl3", "sl4,so4", "so6,so5"])
@pytest.mark.parametrize("break_route", ["no-split", "zero-row"])
def test_pointwise_route_falls_back_to_the_same_report(name, break_route, monkeypatch):
    # with no split of the matrix positions, or with widths above the true
    # ones (a zero row at the bound), summary takes the symbolic route and
    # writes the same bytes
    want = report_to_json_text(verify_summary(parse_pair_name(name)))
    real = invariants.pointwise_invariants
    calls = []

    def widened(pr):
        pw = real(pr)
        pw.widths = [w + 2 for w in pw.widths]
        return pw

    if break_route == "no-split":
        monkeypatch.setattr(invariants, "_position_classes", lambda *args: None)
    else:
        monkeypatch.setattr(analysis, "pointwise_invariants", widened)
    symbolic = analysis.contraction_invariants
    monkeypatch.setattr(analysis, "contraction_invariants",
                        lambda *args, **kw: calls.append(1) or symbolic(*args, **kw))
    got = report_to_json_text(verify_summary(parse_pair_name(name)))
    assert got == want
    maximal = structure.build_pair(name).maximal_rank
    assert calls == ([] if break_route == "no-split" and maximal else [1])


@pytest.mark.parametrize("name", ["sl3,so3", "so5,so4", "sl4,so4", "sl5,gl3"])
def test_pointwise_summary_builds_no_polynomial(name, monkeypatch):
    # on a pointwise pair no Poly is built, no classical invariant and no
    # centrality bracket of a top
    built = []
    real = Poly.__init__
    monkeypatch.setattr(Poly, "__init__",
                        lambda self, *args: built.append(1) or real(self, *args))
    monkeypatch.setattr(analysis, "classical_invariants", None)
    monkeypatch.setattr(invariants, "verify_central", None)
    assert verify_summary(parse_pair_name(name)).passed
    assert built == []


def test_summary_builds_the_classical_invariants_once(monkeypatch):
    # every binding of classical_invariants, so that a call from any layer
    # is counted: so5,so4 (block type) and sl4,so4 (maximal rank) read the
    # rows of index(k) and index(g) at points, with no polynomial; sl4,sp4
    # (quaternionic, no split of the matrix positions) takes the
    # weight-echelon route and builds them once
    real = invariants.classical_invariants
    for name, want in [("so5,so4", []), ("sl4,so4", []), ("sl4,sp4", [15])]:
        calls = []

        def counting(pr):
            calls.append(pr.g.dim)
            return real(pr)

        for module in (analysis, invariants):
            monkeypatch.setattr(module, "classical_invariants", counting)
        rep = verify_summary(parse_pair_name(name))
        monkeypatch.undo()
        assert rep.passed, name
        assert calls == want, name


def _counting_certificates(monkeypatch) -> list:
    """Record every run of the equivariance certificate; it runs when a
    realization first reads its duals, so only a pair built after this
    patch (as every suite builds its own) is counted."""
    calls = []
    certify = structure._certify_equivariant
    monkeypatch.setattr(structure, "_certify_equivariant",
                        lambda *args: calls.append(1) or certify(*args))
    return calls


@pytest.mark.parametrize("name", ["sp4,sp2+sp2", "sp6,sp2+sp4", "sp8,sp2+sp6"])
def test_summary_certifies_the_generic_element_once(name, monkeypatch):
    # the raw tops of these pairs are dependent at the first point, so the
    # pointwise rows fall back to the weight-echelon tops, whose classical
    # invariants are built on the duals the pointwise rows read.  On sp8 the
    # run stops once the pool is asked for, to skip its weight-echelon step
    calls = _counting_certificates(monkeypatch)

    class Stop(Exception):
        pass

    def stop(pr, seed):
        raise Stop

    if name == "sp8,sp2+sp6":
        monkeypatch.setattr(analysis, "contraction_invariants", stop)
        with pytest.raises(Stop):
            verify_summary(parse_pair_name(name))
    else:
        assert verify_summary(parse_pair_name(name)).passed
    assert calls == [1]


@pytest.mark.parametrize("run, name", [
    (demonstrate_nonmaximality, "sl3,so3"),
    (verify_nreg, "sl3+sl3,diag"),
    (None, "sp4,gl2"),
], ids=["nonmax", "nreg", "classical-twice"])
def test_each_realization_certifies_its_duals_once(run, name, monkeypatch):
    calls = _counting_certificates(monkeypatch)
    if run is None:
        real = structure.build_pair(name).realization
        assert classical_invariants(real).polys == classical_invariants(real).polys
    else:
        assert run(parse_pair_name(name)).passed
    assert calls == [1]


@pytest.mark.parametrize("run", [
    verify_summary, verify_nreg, demonstrate_nonmaximality,
    lambda p: verify_dim_stab(p, samples=3),
], ids=["summary", "nreg", "nonmax", "dimstab"])
def test_suites_run_no_jacobi_check(run, monkeypatch):
    # every algebra a suite builds is Lie by construction
    calls = []
    monkeypatch.setattr(structure.LieAlgebra, "check_jacobi",
                        lambda self: calls.append(self.dim))
    assert run(parse_pair_name("sl3,so3")).passed
    assert calls == []


def test_nonmaximality_demonstration():
    rep = demonstrate_nonmaximality(PairId("sl_so", (2,)), seed=1)
    assert rep.passed
    # the second regular direction of the worked example behaves the same
    rep2 = demonstrate_nonmaximality(PairId("sl_so", (2,)), seed=2)
    assert rep2.passed
    rep3 = demonstrate_nonmaximality(PairId("sl_so", (3,)), seed=1)
    assert rep3.passed


def _rank_row_calls(monkeypatch, keep_stop=True) -> list:
    """Patch the rank row of the nonmax suite: record the points at which
    its Jacobian rank is taken, the points it draws (they are drawn one at
    a time), and with ``keep_stop=False`` drop the certified stop so that
    every point is evaluated."""
    calls = []
    real_bound = analysis.trdeg_lower_bound

    def drawn(points):
        for mu in points:
            calls.append(mu)
            yield mu

    def bound(polys, points, stop=None):
        return real_bound(polys, drawn(points), stop=stop if keep_stop else None)

    monkeypatch.setattr(analysis, "trdeg_lower_bound", bound)
    return calls


def _maximal_rank(name: str) -> bool:
    d = satake_of(parse_pair_name(name))
    return not d.arrows and "b" not in d.colors


@pytest.mark.parametrize("name", [p for p in dict.fromkeys(TIER1_PAIRS + LADDER_PAIRS)
                                  if _maximal_rank(p)])
def test_nonmax_rank_stop_matches_the_full_maximum(name, monkeypatch):
    # on every maximal-rank pair the rank row stopped at b reads the
    # maximum over all 5 points, and the whole report is the same
    pid = parse_pair_name(name)
    stopped = _rank_row_calls(monkeypatch)
    rep = demonstrate_nonmaximality(pid)
    monkeypatch.undo()
    full = _rank_row_calls(monkeypatch, keep_stop=False)
    want = demonstrate_nonmaximality(pid)
    assert rep.checks[-1].name == "family rank stays at b" and rep.passed
    assert report_to_json_text(rep) == report_to_json_text(want)
    assert len(full) == 5 and 1 <= len(stopped) <= 5


def test_nonmax_rank_row_stops_at_the_first_point_of_rank_b(monkeypatch):
    calls = _rank_row_calls(monkeypatch)
    rep = demonstrate_nonmaximality(parse_pair_name("sp6,gl3"))
    assert rep.passed and len(calls) == 1


def test_nonmax_rank_row_runs_every_point_without_commutation(monkeypatch):
    # a failed commutation check leaves no upper bound: all 5 points run
    calls = _rank_row_calls(monkeypatch)
    monkeypatch.setattr(analysis, "pairwise_commuting",
                        lambda q, polys: (False, (0, 1, polys[0])))
    rep = demonstrate_nonmaximality(parse_pair_name("sp6,gl3"))
    assert not rep.passed and len(calls) == 5


def test_nonmaximality_requires_maximal_rank():
    with pytest.raises(UnsupportedPairError, match="maximal rank"):
        demonstrate_nonmaximality(parse_pair_name("so5,so4"))


def test_report_serialization_deterministic():
    a = report_to_json_text(verify_summary(PairId("sl_so", (2,)), seed=5))
    b = report_to_json_text(verify_summary(PairId("sl_so", (2,)), seed=5))
    assert a == b
    data = json.loads(a)
    assert data["pass"] is True
    assert data["seed"] == 5
    assert "timings" not in data          # wall time never serialized


def test_report_markdown_shape():
    rep = verify_summary(PairId("sl_so", (2,)))
    md = rep.to_markdown()
    assert md.startswith("# summary")
    assert "| check |" in md
    assert "PASS" in md
