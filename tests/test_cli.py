import json
import os
import time

import pytest

from z2poisson import structure
from z2poisson.cli import main

SL2_JSON = {
    "dim": 3,
    "labels": ["e", "f", "h"],
    "sc": [[1, 2, [[3, "1"]]], [1, 3, [[1, "-2"]]], [2, 3, [[2, "2"]]]],
}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_pair(capsys):
    code, out, _ = run(["classify", "--pair", "E6,F4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data == {"family": "e6_f4", "params": [], "rank": 2,
                    "codim3": True, "n_regular": False, "m": None}
    assert list(data.keys()) == ["family", "params", "rank", "codim3",
                                 "n_regular", "m"]


def test_classify_diagram(capsys):
    code, out, _ = run(["classify", "A1 colors=w arrows=[]"], capsys)
    assert code == 0
    assert json.loads(out)["codim3"] is False


def test_classify_markdown(capsys):
    code, out, _ = run(["classify", "--pair", "sl2,so2", "--format", "markdown"],
                       capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| pair | satake | rank | r |")
    assert "(sl2, so2)" in lines[2]
    code, out, _ = run(["classify", "--pair", "f4,so9", "--format", "markdown"],
                       capsys)
    assert "| so7 |" in out.splitlines()[2]


def test_classify_markdown_canonicalizes_once(capsys, monkeypatch):
    # the markdown row shows the canonical form that classify computed
    from z2poisson import diagram
    calls = []
    raw = diagram._canonical_from_raw

    def counted(*args):
        calls.append(1)
        return raw(*args)

    monkeypatch.setattr(diagram, "_canonical_from_raw", counted)
    seen = {}
    for fmt in ("json", "markdown"):
        calls.clear()
        code, out, _ = run(["classify", "A2 x A1 colors=www arrows=[(1,3)]",
                            "--format", fmt], capsys)
        assert code == 0
        seen[fmt] = len(calls)
    assert seen["markdown"] == seen["json"]
    assert "| A1 x A2 colors=www arrows=[(1,2)] |" in out.splitlines()[2]


def test_classify_exit_codes(capsys):
    code, _, err = run(["classify", "A2 colors=wb arrows=[(1,2)]"], capsys)
    assert code == 3 and "black" in err
    code, _, err = run(["classify", "A2 colours=ww"], capsys)
    assert code == 2
    code, _, err = run(["classify", "--pair", "sl9,e8"], capsys)
    assert code == 4


def test_bracket_pair(capsys):
    code, out, _ = run(["bracket", "--pair", "sl2,so2", "v^2+w^2", "u"], capsys)
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(["bracket", "--pair", "sl2,so2", "u", "v"], capsys)
    assert code == 0 and out.strip() == "-2*w"


def test_bracket_algebra_file(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(SL2_JSON))
    code, out, _ = run(["bracket", "--algebra", str(path), "e", "f"], capsys)
    assert code == 0 and out.strip() == "h"


def test_bracket_parse_error(capsys):
    code, _, err = run(["bracket", "--pair", "sl2,so2", "v^", "u"], capsys)
    assert code == 2


def test_bracket_zero_denominator(capsys):
    code, _, err = run(["bracket", "--pair", "sl2,so2", "1/0*u", "v"], capsys)
    assert code == 2 and "zero denominator" in err


def test_bracket_budget_exit(capsys):
    code, _, err = run(["bracket", "--pair", "sl2,so2", "u^101", "v^101"], capsys)
    assert code == 5 and "budget" in err


def test_shift(capsys):
    code, out, _ = run(["shift", "--pair", "sl2,so2", "--xi", "0,1,0",
                        "v^2+w^2"], capsys)
    assert code == 0 and out.strip() == "v^2+w^2 ; 2*v"


def test_shift_bad_direction_length(capsys):
    code, _, err = run(["shift", "--pair", "sl2,so2", "--xi", "0,1",
                        "v^2+w^2"], capsys)
    assert code == 3


def test_shift_zero_polynomial(capsys):
    code, _, err = run(["shift", "--pair", "sl2,so2", "--xi", "0,1,0", "0"],
                       capsys)
    assert code == 3 and "zero polynomial" in err


def test_verify_summary_writes_reports(tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    code, out, _ = run(["verify", "--suite", "summary", "--pair", "sl2,so2",
                        "--out", out_dir], capsys)
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) == 2
    assert files[0].endswith(".json") and files[1].endswith(".md")
    data = json.loads(open(os.path.join(out_dir, files[0])).read())
    assert data["pass"] is True


def test_verify_nreg_unsupported_exit(capsys):
    code, _, err = run(["verify", "--suite", "nreg", "--pair", "sp4,sp2+sp2"],
                       capsys)
    assert code == 4


def test_a_printed_pair_name_runs_as_given(capsys):
    code, out, _ = run(["verify", "--suite", "dimstab", "--pair", "(sl3+sl3, diag)",
                        "--samples", "2"], capsys)
    assert code == 0 and json.loads(out)["pair"] == "(sl3+sl3, diag)"
    code, out, _ = run(["classify", "--pair", "sl6,sl1+sl5+t1"], capsys)
    assert code == 0 and json.loads(out)["params"] == [6, 1]


@pytest.mark.parametrize("pair, message", [
    ("sl1,so1", "sl_so needs n >= 2"),
    ("sl3,gl1", "sl_gl needs 0 < k <= n-k"),
    ("sl4,gl0", "sl_gl needs 0 < k <= n-k"),
    ("sp3+sp3,diag", "sp parameter must be even"),
])
def test_bad_catalog_parameters_exit_4(pair, message, capsys):
    # the catalog check runs before any matrix of the pair is built
    code, _, err = run(["verify", "--suite", "summary", "--pair", pair], capsys)
    assert code == 4 and message in err
    code, _, err = run(["bracket", "--pair", pair, "u", "v"], capsys)
    assert code == 4 and message in err


def test_verify_main(capsys):
    code, out, _ = run(["verify", "--suite", "main", "--max-nodes", "2"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_main_above_the_node_cap_exits_5(capsys):
    # the 8-node cap is a budget on the enumeration's work
    code, out, err = run(["verify", "--suite", "main", "--max-nodes", "9"], capsys)
    assert code == 5 and "budget" in err and "8 nodes" in err and out == ""
    assert "Traceback" not in err


def test_verify_requires_pair(capsys):
    code, _, err = run(["verify", "--suite", "summary"], capsys)
    assert code == 4


def test_deterministic_output(capsys):
    a = run(["verify", "--suite", "dimstab", "--pair", "sl2,so2",
             "--samples", "5"], capsys)
    b = run(["verify", "--suite", "dimstab", "--pair", "sl2,so2",
             "--samples", "5"], capsys)
    assert a == b


def test_seed_defaults_to_1_whatever_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("Z2C_SEED", "77")
    code, out, _ = run(["verify", "--suite", "summary", "--pair", "sl2,so2"],
                       capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 1
    code, out, _ = run(["verify", "--suite", "summary", "--pair", "sl2,so2",
                        "--seed", "3"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 3


def test_verify_unwritable_out(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(["verify", "--suite", "summary", "--pair", "sl2,so2",
                          "--out", str(blocker / "x")], capsys)
    assert code == 3 and "cannot write" in err and out == ""


def test_shift_budget_exit(capsys):
    code, out, err = run(["shift", "--pair", "sl2,so2", "--xi", "1,1,1",
                          "u^100*v^100*w^100"], capsys)
    assert code == 5 and "budget" in err and out == ""


def test_classify_canonical_budget_exit(capsys):
    # the canonical form of k equal components tries k! relabelings
    def copies(k):
        return " x ".join(["A1"] * k) + f" colors={'w' * k} arrows=[]"

    t0 = time.monotonic()
    code, out, err = run(["classify", copies(10)], capsys)
    assert code == 5 and "budget" in err and out == ""
    assert time.monotonic() - t0 < 1.0
    code, out, _ = run(["classify", copies(8)], capsys)
    assert code == 0 and json.loads(out)["codim3"] is False


def test_pair_dimension_budget_exit(capsys, monkeypatch):
    # dim g of sl99999 is about 10^10: refused before any matrix is built;
    # a builder that is reached fails the test instead of building
    for family in structure._BUILDERS:
        monkeypatch.setitem(structure._BUILDERS, family,
                            lambda pair: pytest.fail(f"{pair} reached its builder"))
    t0 = time.monotonic()
    code, out, err = run(["verify", "--suite", "summary", "--pair",
                          "sl99999,so99999", "--seed", "1"], capsys)
    assert code == 5 and "budget" in err and out == ""
    assert time.monotonic() - t0 < 1.0
    monkeypatch.undo()
    # the largest pair any suite is run on is well inside the budget
    assert structure.build_pair("sl10,so10").g.dim == 99 < structure.PAIR_DIM_BUDGET


def test_flags_only_where_read(capsys):
    for argv in (["bracket", "--pair", "sl2,so2", "--exact", "u", "v"],
                 ["verify", "--suite", "summary", "--pair", "sl2,so2", "--exact"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --exact" in capsys.readouterr().err


def test_classify_takes_the_diagram_positionally_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "A1 colors=w arrows=[]",
              "--diagram", "A2 colors=ww arrows=[(1,2)]"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--diagram" in captured.err


@pytest.mark.parametrize("flags, flag, suite", [
    (["--suite", "summary", "--pair", "sl2,so2", "--samples", "3"],
     "--samples", "summary"),
    (["--suite", "main", "--max-nodes", "2", "--degree-bound", "2"],
     "--degree-bound", "main"),
    (["--suite", "nreg", "--pair", "sl2,so2", "--max-nodes", "3"],
     "--max-nodes", "nreg"),
    (["--suite", "main", "--max-nodes", "2", "--pair", "sl2,so2"],
     "--pair", "main"),
], ids=["samples", "degree-bound", "max-nodes", "pair"])
def test_verify_rejects_flags_of_other_suites(flags, flag, suite, capsys):
    code, out, err = run(["verify"] + flags, capsys)
    assert code == 2 and out == ""
    assert flag in err and repr(suite) in err


def test_verify_suite_flags_keep_their_defaults(capsys, monkeypatch):
    from z2poisson import cli
    from z2poisson.analysis import VerificationReport
    seen = {}

    def recorder(name):
        def suite(**kwargs):
            seen[name] = kwargs
            return VerificationReport(name, "", kwargs["seed"])
        return suite

    for name in ("main", "dimstab", "nreg", "summary"):
        monkeypatch.setitem(cli.SUITES, name, recorder(name))
    for flags in (["--suite", "main"],
                  ["--suite", "dimstab", "--pair", "sl2,so2"],
                  ["--suite", "nreg", "--pair", "sl2,so2"],
                  ["--suite", "summary", "--pair", "sl2,so2"]):
        assert run(["verify"] + flags, capsys)[0] == 0
    sl2 = cli.parse_pair_name("sl2,so2")
    assert seen == {
        "main": {"seed": 1, "max_nodes": 6},
        "dimstab": {"seed": 1, "samples": 20, "pair": sl2},
        "nreg": {"seed": 1, "degree_bound": None, "pair": sl2},
        "summary": {"seed": 1, "pair": sl2},
    }


def test_library_suites_default_like_the_cli(capsys):
    # the nreg degree bound changes the report on small pairs: the library
    # default must be the CLI's
    from z2poisson.analysis import report_to_json_text, verify_nreg
    from z2poisson.diagram import parse_pair_name
    code, out, _ = run(["verify", "--suite", "nreg", "--pair", "sl2+sl2,diag"],
                       capsys)
    assert code == 0
    assert out == report_to_json_text(verify_nreg(parse_pair_name("sl2+sl2,diag")))
    assert "up to degree 4" in out


def test_given_degree_bound_runs_as_given(capsys):
    # dim sl4 = 15 > 8, so the default would be 2
    code, out, _ = run(["verify", "--suite", "nreg", "--pair", "sl4,so4",
                        "--degree-bound", "3"], capsys)
    assert code == 0
    assert "odd-invariant search up to degree 3" in out


@pytest.mark.parametrize("xi", ["0,1/0,0", "0,x,0"])
def test_shift_unparsable_direction(xi, capsys):
    code, _, err = run(["shift", "--pair", "sl2,so2", "--xi", xi, "v^2+w^2"],
                       capsys)
    assert code == 2 and "parse error" in err


NOT_JACOBI = {"dim": 3, "labels": ["a", "b", "c"],
              "sc": [[1, 2, [[3, "1"]]], [1, 3, [[1, "1"]]]]}


@pytest.mark.parametrize("text, code, message", [
    (json.dumps(dict(SL2_JSON, labels=["e", "f"])), 3, "label count"),
    ('{"dim": 3,', 2, "not JSON"),
    (None, 3, "cannot read"),
    (json.dumps(NOT_JACOBI), 3, "Jacobi"),
    (json.dumps(dict(SL2_JSON, sc=[[1, 2, [[0, "1"]]]])), 3, "target"),
    (json.dumps(dict(SL2_JSON, sc=[[1, 2, [[4, "1"]]]])), 3, "target"),
    (json.dumps(dict(SL2_JSON, labels=["e", "e", "h"])), 3, "not distinct"),
    (json.dumps(dict(SL2_JSON, labels=["e f", "f", "h"])), 3, "variable name"),
], ids=["label-count", "invalid-json", "missing-file", "jacobi", "target-0",
        "target-past-dim", "duplicate-label", "label-not-a-name"])
def test_bad_algebra_file(tmp_path, capsys, text, code, message):
    path = tmp_path / "algebra.json"
    if text is not None:
        path.write_text(text)
    got, _, err = run(["bracket", "--algebra", str(path), "e", "f"], capsys)
    assert got == code and message in err


def test_algebra_file_is_checked_for_jacobi_once(tmp_path, capsys, monkeypatch):
    from z2poisson.structure import LieAlgebra
    calls = []
    real = LieAlgebra.check_jacobi

    def counting(self):
        calls.append(self.dim)
        return real(self)

    monkeypatch.setattr(LieAlgebra, "check_jacobi", counting)
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(SL2_JSON))
    code, out, _ = run(["bracket", "--algebra", str(path), "e", "f"], capsys)
    assert (code, out) == (0, "h\n")
    assert calls == [3]


@pytest.mark.parametrize("flags", [
    ["--suite", "dimstab", "--pair", "sl2,so2", "--samples", "-3"],
    ["--suite", "main", "--max-nodes", "0"],
    ["--suite", "nreg", "--pair", "sl2,so2", "--degree-bound", "-1"],
], ids=["samples", "max-nodes", "degree-bound"])
def test_counts_must_be_positive(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + flags)
    assert exc.value.code == 2
    assert "not a positive count" in capsys.readouterr().err
