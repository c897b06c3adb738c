import json
import os

import pytest

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


def test_verify_main(capsys):
    code, out, _ = run(["verify", "--suite", "main", "--max-nodes", "2"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_requires_pair(capsys):
    code, _, err = run(["verify", "--suite", "summary"], capsys)
    assert code == 4


def test_deterministic_output(capsys):
    a = run(["verify", "--suite", "dimstab", "--pair", "sl2,so2",
             "--samples", "5"], capsys)
    b = run(["verify", "--suite", "dimstab", "--pair", "sl2,so2",
             "--samples", "5"], capsys)
    assert a == b


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("Z2C_SEED", "77")
    code, out, _ = run(["verify", "--suite", "summary", "--pair", "sl2,so2"],
                       capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 77


def test_flags_only_where_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "--pair", "sl2,so2", "--exact", "u", "v"])
    assert exc.value.code == 2


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
