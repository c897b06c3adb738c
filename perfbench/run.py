"""Cold-process benchmark of ``z2c verify``.

Usage, from the repository root:

    python3 perfbench/run.py --workload summary-ladder --seed 1 --seconds 40 --trace 0

Every job is ``python -m z2poisson.cli verify ... --seed=<seed>`` with
``PYTHONPATH=src``, run in a fresh interpreter, one at a time: a closed loop
with one client.  Fresh processes matter because ``structure._INDEX_MEMO``
and ``LieAlgebra._index`` live for the life of a process, and every real
``z2c`` call pays the elimination they would skip.

A run repeats the workload's job list while another pass still fits in
``--seconds`` (at least one pass) and reports medians over passes; setup
samples are taken between jobs.  Every job is checked: exit code 0, a JSON
report with ``"pass": true`` that echoes the suite and seed, and the facts
pinned in ``WORKLOADS``.  A job that fails or is killed at the per-job cap
counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
untraced pass, then one pass in which every job runs under
``perfbench/trace_job.py``, and prints the per-layer metrics plus the
tracing overhead (traced minus untraced wall time).

Human-readable lines come first; the last line of standard output is the
JSON result.  Exit code 2 without a result means the benchmark could not
start, e.g. because ``src/z2poisson`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from trace_job import COUNTERS, TARGETS  # noqa: E402

JOB_CAP_S = 60.0        # a job running longer is killed and counts as failed
RUN_DEADLINE_S = 150.0  # no job runs past this point, so a run ends in 180 s
SETUP_SAMPLES_PER_GAP = 3  # setup noise comes in bursts of seconds: spread out

# rank of g, and b(k) = (dim g + rank g) / 2, for every pair the benchmark runs
RANK_AND_B = {
    "sl2,so2": (1, 2), "sl3,so3": (2, 5), "sp4,gl2": (2, 6), "so5,so4": (2, 6),
    "sl4,so4": (3, 9), "sl4,sp4": (3, 9), "sl5,gl3": (4, 14),
    "sl3+sl3,diag": (4, 10), "sp6,gl3": (3, 12),
}


def _summary(pair):
    rank, b = RANK_AND_B[pair]
    return (("--suite", "summary", "--pair", pair),
            {"index(k) = rk g": {"expected": rank, "computed": rank},
             "b(k) = b(g)": {"computed": str(b)}})


def _nonmax(pair):
    return (("--suite", "nonmax", "--pair", pair),
            {"family rank stays at b": {"computed": RANK_AND_B[pair][1]}})


def _nreg(pair):
    return (("--suite", "nreg", "--pair", pair),
            {"generator count = b(k)": {"computed": RANK_AND_B[pair][1]}})


# Why these workloads:
# - summary-ladder: dimensions 3 to 24; almost all time is symbolic Bareiss
#   elimination under structure.index (poly growth, div_exact).
# - families: pairs with cheap indices; time goes to the shift and
#   abelian-ideal families (many small products, exact rational rref).
# - diagrams: pure diagram combinatorics, no poly/structure/linalg work; the
#   control for kernel changes.
# Pairs that cannot finish inside a run today (so6,so5; sl5,so5; so7,so6;
# sl6,sp6) and main at 7 or 8 nodes are left out.
WORKLOADS = {
    "summary-ladder": [_summary(p) for p in (
        "sl2,so2", "sl3,so3", "sp4,gl2", "so5,so4", "sl4,so4", "sl4,sp4",
        "sl5,gl3")],
    "families": [
        _nonmax("sl4,so4"), _nonmax("sp6,gl3"),
        _nreg("sl4,so4"), _nreg("sl3+sl3,diag"), _nreg("sp6,gl3"),
        (("--suite", "dimstab", "--pair", "sp6,gl3"),
         {"stabilizer dimension identity failures": {"computed": []}}),
    ],
    "diagrams": [
        (("--suite", "main", "--max-nodes", "6"),
         {"predicate equivalence exceptions": {
             "computed": [],
             "note": "8755 diagrams enumerated, 3580 with codim-3"}}),
    ],
}

END_TO_END = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TARGETS:
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
        units[name + ".self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["diagram.closure.calls_per_diagram"] = "calls/diagram"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # keep setup on cached bytecode
    return env


@dataclass
class Result:
    name: str
    code: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float
    killed: bool
    error: str = ""        # empty when the job passed every check
    spans: dict | None = None


def run_process(name: str, argv: list[str], cap: float) -> Result:
    """Run argv to completion or until cap seconds pass; peak RSS comes from
    this child's own rusage (os.wait4), not the cumulative RUSAGE_CHILDREN."""
    killed = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=job_env(),
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(max(cap, 0.0), kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(name, proc.returncode, out.decode(), b"".join(err).decode(),
                  wall, usage.ru_maxrss / 1024.0, killed.is_set())


def check_report(res: Result, job, seed: int) -> str:
    """Empty string when the job passes, else the reason it failed."""
    args, pins = job
    if res.killed:
        return "killed at the per-job wall cap"
    if res.code != 0:
        last = res.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {res.code}: {last[0][:200]}"
    try:
        rep = json.loads(res.stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if rep.get("pass") is not True:
        return "report does not pass"
    if rep.get("suite") != args[1] or rep.get("seed") != seed:
        return "report does not echo the suite and seed"
    checks = {c.get("name"): c for c in rep.get("checks", [])}
    for name, fields in pins.items():
        got = checks.get(name)
        if got is None:
            return f"pinned check {name!r} missing"
        for key, want in fields.items():
            if got.get(key) != want:
                return f"pinned check {name!r}: {key} {got.get(key)!r} != {want!r}"
    return ""


def job_name(job) -> str:
    args = job[0]
    return " ".join(args[1::2])


def run_pass(jobs, seed: int, deadline: float, traced: bool, setup=None):
    """Run every job once.  With a setup list, SETUP_SAMPLES_PER_GAP setup
    samples are taken before each job, so they spread over the run.
    Returns (sum of job wall times, results)."""
    results = []
    for job in jobs:
        if setup is not None:
            setup += setup_samples(SETUP_SAMPLES_PER_GAP, deadline)
        head = ([sys.executable, os.path.join(ROOT, "perfbench", "trace_job.py")]
                if traced else [sys.executable, "-m", "z2poisson.cli"])
        argv = head + ["verify", *job[0], f"--seed={seed}"]
        cap = min(JOB_CAP_S, deadline - time.perf_counter())
        res = run_process(job_name(job), argv, cap)
        if traced and not res.killed and res.stdout:
            try:
                payload = json.loads(res.stdout.splitlines()[-1])
                res.stdout, res.spans = payload["stdout"], payload["spans"]
            except (json.JSONDecodeError, KeyError) as exc:
                res.error = f"traced output unreadable: {exc}"
        res.error = res.error or check_report(res, job, seed)
        results.append(res)
    return sum(r.wall for r in results), results


def print_pass(label: str, wall: float, results) -> None:
    print(f"{label}: {wall:.3f} s")
    for r in results:
        verdict = "ok" if not r.error else "FAILED " + r.error
        print(f"  {r.name:<24} {r.wall:8.3f} s {r.rss_mb:8.1f} MiB  {verdict}")


def setup_samples(n: int, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and exit."""
    out = []
    for _ in range(n):
        res = run_process("setup", [sys.executable, "-c", "import z2poisson.cli"],
                          min(30.0, deadline - time.perf_counter()))
        if res.code != 0 or res.killed:
            raise RuntimeError("cannot import z2poisson.cli: " + res.stderr.strip())
        out.append(res.wall)
    return out


def src_line_count() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "z2poisson")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def layer_metrics(results, untraced_wall: float, traced_wall: float) -> dict:
    calls = dict.fromkeys(TARGETS, 0)
    incl = dict.fromkeys(TARGETS, 0.0)
    self_s = dict.fromkeys(TARGETS, 0.0)
    counters = dict.fromkeys(COUNTERS, 0)
    for r in results:
        if r.spans is None:
            continue
        for name in TARGETS:
            calls[name] += r.spans["calls"][name]
            incl[name] += r.spans["s"][name]
            self_s[name] += r.spans["self_s"][name]
        for name in COUNTERS:
            counters[name] += r.spans["counters"][name]
    values = {}
    for name in TARGETS:
        values[name + ".calls"] = calls[name]
        values[name + ".s"] = incl[name]
        values[name + ".self_s"] = self_s[name]
    values.update(counters)
    yielded = counters["diagram.enumerate.yielded"]
    values["diagram.closure.calls_per_diagram"] = (
        calls["diagram.one_step"] / yielded if yielded else 0.0)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def measure_end_to_end(jobs, seed: int, seconds: float, deadline: float):
    """Passes while another fits in `seconds`; medians over passes."""
    walls, slowest, rss, setup, all_results = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        wall, results = run_pass(jobs, seed, deadline, traced=False, setup=setup)
        print_pass(f"pass {len(walls) + 1}", wall, results)
        all_results += results
        walls.append(wall)
        slowest.append(max(r.wall for r in results))
        rss.append(max(r.rss_mb for r in results))
        now = time.perf_counter()
        per_pass = (now - t0) / len(walls)
        if now - t0 + per_pass > seconds or now + per_pass > deadline:
            break
    setup += setup_samples(SETUP_SAMPLES_PER_GAP, deadline)
    values = {"wall_s": statistics.median(walls),
              "slowest_job_s": statistics.median(slowest),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": statistics.median(rss)}
    return values, END_TO_END, all_results


def measure_layers(jobs, seed: int, deadline: float):
    """One untraced pass, then one traced pass of the same jobs."""
    untraced_wall, results = run_pass(jobs, seed, deadline, traced=False)
    print_pass("untraced pass", untraced_wall, results)
    traced_wall, traced = run_pass(jobs, seed, deadline, traced=True)
    print_pass("traced pass", traced_wall, traced)
    values = layer_metrics(traced, untraced_wall, traced_wall)
    return values, per_layer_units(), results + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    jobs = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "z2poisson", "cli.py")):
        print(f"no z2poisson sources under {SRC}", file=sys.stderr)
        return 2
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "nproc": os.cpu_count(),
               "python": platform.python_version(),
               "src_lines": src_line_count()}
    print("context " + json.dumps(context))
    try:
        # untimed warm-up, so that every timed import reads cached bytecode
        setup_samples(1, deadline)
        if args.trace:
            values, units, results = measure_layers(jobs, args.seed, deadline)
        else:
            values, units, results = measure_end_to_end(
                jobs, args.seed, args.seconds, deadline)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2

    failed = sum(1 for r in results if r.error)
    for name, value in values.items():
        print(f"{name:<48} {value:14.6f} {units[name]}")
    print(f"{'failed_frac':<48} {failed / len(results):14.6f} "
          f"({failed} of {len(results)} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
