"""The traced benchmark patches functions by name; every name it lists must
still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import pathlib

TRACE_JOB = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "trace_job.py"


def _load_trace_job():
    spec = importlib.util.spec_from_file_location("trace_job", TRACE_JOB)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    targets = _load_trace_job().TARGETS
    assert targets
    for name, (modname, attr) in targets.items():
        mod = importlib.import_module("z2poisson." + modname)
        if attr == "SUITES":
            assert isinstance(mod.SUITES, dict) and mod.SUITES, name
        elif "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), name
        else:
            assert callable(getattr(mod, attr)), name
