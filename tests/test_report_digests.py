"""Every benchmark job's ``z2c verify --seed 1`` JSON report, pinned by its
sha256: a change that claims byte-identical reports is checked on every run.

The jobs are the ones ``perfbench/run.py`` lists in ``WORKLOADS``; they run
here in this process through ``cli.main``.
"""

import contextlib
import hashlib
import importlib.util
import io
import pathlib
import sys

import pytest

from z2poisson.cli import main

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

DIGESTS = {
    "--suite summary --pair sl2,so2":
        "54bd236394c464c5b8855f5b58f6cf245a7e0181c15b8b04e4fbb13121dfc3ee",
    "--suite summary --pair sl3,so3":
        "f23935f308cd5277a1195184c0ed16024aa35499c2e4aeb1461003ceb82ab0f9",
    "--suite summary --pair sp4,gl2":
        "c8be1b3f8e623d53751041a5d4ab90c031e35e543ebfab33b1863e24beb5777c",
    "--suite summary --pair so5,so4":
        "b60658ca94b698b9195b3f2de60b5f533cd80fb8db8fe726abe2664faa6f054d",
    "--suite summary --pair sl4,so4":
        "be647922c48c82f38e5ff29cc108d4223dea221d00714cccc6faf7faa936592f",
    "--suite summary --pair sl4,sp4":
        "f69c1976475c1f7e91e464f6a2aefcac1173f6b108823a499554cf7f386a0c33",
    "--suite summary --pair sl5,gl3":
        "2b4f87892088d25452d60cdbffda39c653b0dd533e77327e6401b355a1b031a2",
    "--suite nonmax --pair sl4,so4":
        "1cc1ac200b2bdd52296a51a8ec2589b643f2db42be7a0d15619f7b739e3778ad",
    "--suite nonmax --pair sp6,gl3":
        "adfd181ec73ea42e86e43850cc372da279dd1197da15b0407c8ec1413ea45340",
    "--suite nreg --pair sl4,so4":
        "d9cd27145a184c53ae74862117fef465d390220636827f19214e1b4e390dc4c0",
    "--suite nreg --pair sl3+sl3,diag":
        "bcab60ae0000fc4957204a41e8602f7e7e090059b8b17a1f3125bd8e713a1fd9",
    "--suite nreg --pair sp6,gl3":
        "93d674690eb9c286e8d4e168f2675a727e2c8cc1d9d1c035ce238f8828f4fece",
    "--suite dimstab --pair sp6,gl3":
        "6263247f70cc5a750a8be46b8ba6e5ac9fdd787d532ab19cc285c3a6fca5d44c",
    "--suite main --max-nodes 6":
        "6657cd19b4f7d6f29077ddcb8748ebb876827d4f3bba2cfc49b1f5bce988475c",
}

# dimstab jobs whose g0^beta is non-abelian, outside the benchmark
DIMSTAB_DIGESTS = {
    "--suite dimstab --pair sl4,sp4":
        "ba2cd2d5656d92873673938fb3dea5bf81cfa6f7f5816b4400365a7af4d45683",
    "--suite dimstab --pair so7,so6":
        "302da91a7e1afd5b71709a9ed4e73ae27dd0baa77538ca01ddcaf02f80311775",
    "--suite dimstab --pair sp4,sp2+sp2":
        "e2a846a5b6385144031ab36f98c50c638fc8f97a228c7098848bb4d75bdde603",
}

# families jobs outside the benchmark, each at most 0.5 s
FAMILY_DIGESTS = {
    "--suite nonmax --pair sl3,so3":
        "5a0399ac842051a40dc9aa6e80f249e66aa73d4242c073b585a4cac87fd329b3",
    "--suite nonmax --pair sl5,so5":
        "0f5c7d97424eeba9fb65b82adab6ed0558dbf0a18e4b5e817bdc5bdfde0f7ad3",
    "--suite nreg --pair sl5,gl3":
        "afb0680cbf7fc1385f2b5022dc5e8e10da2f87c436b67e3f414baf5ec6b43763",
    "--suite nreg --pair sp4,gl2":
        "261960a9f9dfa32862db7cd111c1d4c4f94d2f860b303dd5a4dd053578e7080f",
    "--suite dimstab --pair sl4,so4":
        "6cee24e94e0140167508505c37107e81934511d6a29796dac3d76a7c9f96ebed",
}


# summary jobs outside the benchmark whose g0^z is non-abelian, so that
# its index was once an elimination and is now certified; so9,so2+so7 was
# the slowest summary at dim g <= 36 (25 s of weight-echelon tops) and is
# read off pointwise rows
SUMMARY_DIGESTS = {
    "--suite summary --pair so6,so5":
        "591ae9dfb79e74e1ee3fd7c1a7f49507eaa3637650b5286066959c2e85e1c192",
    "--suite summary --pair so7,so6":
        "379ce3f52791caa30c7853a7b35ff222ee0af66f0c821011f1e5f3c1ae3125c5",
    "--suite summary --pair sp6,sp2+sp4":
        "452ce145dcc0553b5283464afa8068e1ff7bae6b5b9782d6659a5571349232f0",
    "--suite summary --pair sl4+sl4,diag":
        "36165aef22d9e3e88cb9faa160036b2410783d10b567afebf6048425df9bb081",
    "--suite summary --pair so9,so2+so7":
        "5e93c2cfba477669784949fb5c68295221f8ddc454e191b71b8fa0e18590b427",
}


def _benchmark_jobs() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod      # dataclasses looks its module up here
    saved_path = list(sys.path)
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = saved_path
        del sys.modules[spec.name]
    return [" ".join(argv) for jobs in mod.WORKLOADS.values() for argv, _ in jobs]


def test_digests_cover_every_benchmark_job():
    assert sorted(_benchmark_jobs()) == sorted(DIGESTS)


@pytest.mark.parametrize("job", sorted(DIGESTS))
def test_report_digest(job):
    _check_digest(job, DIGESTS[job])


@pytest.mark.parametrize("job", sorted(DIMSTAB_DIGESTS))
def test_dimstab_report_digest(job):
    _check_digest(job, DIMSTAB_DIGESTS[job])


@pytest.mark.parametrize("job", sorted(FAMILY_DIGESTS))
def test_family_report_digest(job):
    _check_digest(job, FAMILY_DIGESTS[job])


@pytest.mark.parametrize("job", sorted(SUMMARY_DIGESTS))
def test_summary_report_digest(job):
    _check_digest(job, SUMMARY_DIGESTS[job])


def _check_digest(job: str, digest: str) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *job.split(), "--seed", "1"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
