"""Every function and method under ``src/`` has a caller there: code that
only the tests need lives in the tests (``tests/oracles.py``)."""

import ast
import pathlib

from test_trace_targets import _load_trace_job

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "z2poisson"
# public entry points with no caller inside the package: the acceptance
# tests call index and is_regular, the README's closure reference
# reduced_subpairs, and matrix_algebra builds a bare classical algebra;
# enumerate_valid_diagrams and has_bad_rank1_subpair are public API that
# the README and the tests call, while `main` runs on what lies under them
ENTRY_POINTS = {"index", "is_regular", "reduced_subpairs", "matrix_algebra",
                "enumerate_valid_diagrams", "has_bad_rank1_subpair"}


def test_every_src_function_has_a_src_caller():
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif path.name == "__init__.py":
                continue
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    # the tracer patches these by name
    traced = {attr.rpartition(".")[2] for _, attr in _load_trace_job().TARGETS.values()}
    uncalled = sorted(f"{name} ({where})" for name, where in defined.items()
                      if name not in referenced | traced | ENTRY_POINTS
                      and not (name.startswith("__") and name.endswith("__")))
    assert uncalled == []
