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


def test_no_function_is_cached_at_module_level():
    # a functools cache outlives every caller and hands each the same result;
    # per-instance cached_property is not one
    cached = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in {"cache", "lru_cache"}:
                        cached.append(f"{node.name} ({path.name}:{node.lineno})")
    assert cached == []


def test_suite_modules_never_eliminate():
    # every index the suites report is certified by bounds that meet or
    # raises GenericityError: these modules name no symbolic index, neither
    # imported nor as an attribute of the structure module
    for module in ("analysis.py", "invariants.py", "poisson.py"):
        named = set()
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                named |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "structure":
                named.add(node.attr)
        assert named & {"index", "is_regular"} == set(), module
