"""The README's command block runs as written: every ``z2c`` line exits 0
through ``cli.main``, and each ``# -> ...`` comment is its output."""

import json
import re
import shlex
from pathlib import Path

from z2poisson.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

SL2_JSON = {
    "dim": 3,
    "labels": ["e", "f", "h"],
    "sc": [[1, 2, [[3, "1"]]], [1, 3, [[1, "-2"]]], [2, 3, [[2, "2"]]]],
}


def readme_commands():
    """``(argv, expected stdout or None)`` for each line of the ``sh`` block
    that opens the section on the ``z2c`` command."""
    block = re.search(r"## The `z2c` command\s*```sh\n(.*?)```",
                      README.read_text(), re.S).group(1)
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "z2c", line
        expected = comment.strip()
        out.append((argv[1:], expected[3:] + "\n" if expected.startswith("-> ")
                    else None))
    return out


def test_readme_commands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sl2.json").write_text(json.dumps(SL2_JSON))
    commands = readme_commands()
    assert any("--algebra" in argv for argv, _ in commands)
    assert sum(want is not None for _, want in commands) == 3
    for argv, want in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if want is not None:
            assert out == want, argv
