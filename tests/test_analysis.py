import json

import pytest

from z2poisson import PairId, UnsupportedPairError, parse_pair_name
from z2poisson.analysis import (demonstrate_nonmaximality, report_to_json_text,
                                verify_dim_stab, verify_main_combinatorics,
                                verify_nreg, verify_summary)


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


def test_summary_propagates_unsupported():
    with pytest.raises(UnsupportedPairError):
        verify_summary(PairId("e6_f4"))


def test_main_theorem_small_counts():
    counts = {2: (17, 13), 3: (65, 40), 4: (343, 191), 5: (1545, 712),
              6: (8755, 3580)}
    for max_nodes, (total, codim3) in counts.items():
        rep = verify_main_combinatorics(max_nodes=max_nodes)
        assert rep.passed
        assert rep.checks[0].note == \
            f"{total} diagrams enumerated, {codim3} with codim-3"
    with pytest.raises(UnsupportedPairError):
        verify_main_combinatorics(max_nodes=9)


def test_dim_stab(pair):
    for name in ["sl2,so2", "sl3,so3", "sl2+sl2,diag"]:
        rep = verify_dim_stab(parse_pair_name(name), samples=10, seed=2)
        assert rep.passed, rep.to_markdown()


def test_nreg_suite():
    rep = verify_nreg(parse_pair_name("sl2+sl2,diag"))
    assert rep.passed
    with pytest.raises(UnsupportedPairError):
        verify_nreg(parse_pair_name("sp4,sp2+sp2"))


def test_nonmaximality_demonstration():
    rep = demonstrate_nonmaximality(PairId("sl_so", (2,)), seed=1)
    assert rep.passed
    # the second regular direction of the worked example behaves the same
    rep2 = demonstrate_nonmaximality(PairId("sl_so", (2,)), seed=2)
    assert rep2.passed
    rep3 = demonstrate_nonmaximality(PairId("sl_so", (3,)), seed=1)
    assert rep3.passed


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
