"""Run one ``z2c`` command in this process with a timing span around every
call into each layer of ``z2poisson``.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/trace_job.py verify --suite main --max-nodes 6

The wrappers are installed from outside: every module namespace that bound a
traced function (``from .x import y`` makes a second binding) gets the
wrapper, and so do the ``Poly`` and ``SatakeDiagram`` methods.  Nothing
under ``src/`` changes.  The process exits with the command's exit code.
The last line of standard output is one JSON object with that code, the
command's standard output, and per function the number of calls, the
inclusive time (outermost activations only) and the self time (span time
minus the time of the traced spans directly inside it).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

# metric prefix -> (module under z2poisson, attribute).  "Class.method"
# patches a class; "SUITES" patches every suite function in that dict.
TARGETS = {
    "diagram.enumerate": ("diagram", "enumerate_valid_diagrams"),
    "diagram.canonical": ("diagram", "SatakeDiagram.canonical"),
    "diagram.one_step": ("diagram", "SatakeDiagram.subdiagrams_one_step"),
    "diagram.closure": ("diagram", "SatakeDiagram.has_bad_rank1_subpair"),
    "diagram.local": ("diagram", "SatakeDiagram.has_codim3"),
    "structure.index": ("structure", "index"),
    "structure.check_regular_stabilizer_index":
        ("structure", "check_regular_stabilizer_index"),
    "structure.build_pair": ("structure", "build_pair"),
    "structure.stabilizer": ("structure", "stabilizer"),
    "linalg.poly_rank": ("linalg", "poly_rank"),
    "linalg.poly_kernel": ("linalg", "poly_kernel"),
    "linalg.contraction_rank": ("linalg", "contraction_rank"),
    "linalg.kernel": ("linalg", "kernel"),
    "linalg.rref": ("linalg", "rref"),
    "poly.mul": ("poly", "Poly.__mul__"),
    "poly.div_exact": ("poly", "Poly.div_exact"),
    "poly.add": ("poly", "Poly.__add__"),
    "poly.partial": ("poly", "Poly.partial"),
    "poisson.poisson_bracket": ("poisson", "poisson_bracket"),
    "poisson.bracket_with_coordinate": ("poisson", "bracket_with_coordinate"),
    "poisson.mf_family": ("poisson", "mf_family"),
    "poisson.pairwise_commuting": ("poisson", "pairwise_commuting"),
    "poisson.jacobian_rank_at": ("poisson", "jacobian_rank_at"),
    "invariants.classical_invariants": ("invariants", "classical_invariants"),
    "invariants.char_coefficients": ("invariants", "char_coefficients"),
    "invariants.verify_central": ("invariants", "verify_central"),
    "invariants.contraction_invariants": ("invariants", "contraction_invariants"),
    "invariants.noncommutativity_witness":
        ("invariants", "noncommutativity_witness"),
    "analysis.suite": ("analysis", "SUITES"),
    "cli.main": ("cli", "main"),
}

GENERATORS = {"diagram.enumerate"}
# an elimination is a rank computation that `index` itself starts; index
# calls that return a memoized value start none
ELIMINATIONS = {"linalg.poly_rank", "linalg.contraction_rank"}
COUNTERS = ("diagram.enumerate.yielded", "structure.index.eliminations")


class Tracer:
    """Spans kept in memory: per name, calls, inclusive and self time."""

    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.total = dict.fromkeys(TARGETS, 0.0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.active = dict.fromkeys(TARGETS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack: list[list] = []  # [name, start, time of child spans]

    def enter(self, name: str) -> None:
        self.active[name] += 1
        self.stack.append([name, perf_counter(), 0.0])

    def leave(self) -> None:
        name, start, child = self.stack.pop()
        dur = perf_counter() - start
        self.active[name] -= 1
        self.self_s[name] += dur - child
        if not self.active[name]:
            self.total[name] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def wrap(self, name: str, fn):
        if name in GENERATORS:
            return self._wrap_generator(name, fn)
        counts_elimination = name in ELIMINATIONS

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if (counts_elimination and self.stack
                    and self.stack[-1][0] == "structure.index"):
                self.counters["structure.index.eliminations"] += 1
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return wrapper

    def _wrap_generator(self, name: str, fn):
        # creating a generator runs none of its body: time each next()
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave()
                self.counters[name + ".yielded"] += 1
                yield item
        return wrapper

    def install(self) -> None:
        import z2poisson.cli  # noqa: F401  (imports every layer)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "z2poisson" or n.startswith("z2poisson.")]
        for name, (modname, attr) in TARGETS.items():
            mod = sys.modules["z2poisson." + modname]
            if attr == "SUITES":
                for key, fn in mod.SUITES.items():
                    mod.SUITES[key] = self.wrap(name, fn)
            elif "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self.wrap(name, orig)
                for key, val in list(vars(cls).items()):
                    if val is orig:  # also catches __radd__ = __add__
                        setattr(cls, key, wrapped)
            else:
                orig = getattr(mod, attr)
                wrapped = self.wrap(name, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)

    def to_json(self) -> dict:
        return {"calls": self.calls, "s": self.total, "self_s": self.self_s,
                "counters": self.counters}


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import z2poisson.cli as cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(json.dumps({"exit": code, "stdout": out.getvalue(),
                      "spans": tracer.to_json()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
