"""The service on a shared multi-GPU machine, and timed faults in it.

Jobs address their devices by job index (0..gpus_per_job-1) through a
per-job machine view, while the memory ledger, the ``gpu{i}.mem_bytes``
gauge and the fault hooks record by physical device.  A job placed on
gpu1 must therefore copy to gpu1 and account its buffers in pool
``gpu1``.  Timed faults (device loss, bandwidth windows) are scheduled
by the run session, so they fire in a service run exactly as in a
single sort.
"""

import io

import pytest

from repro.cli import main
from repro.hw.platforms import PLATFORM2
from repro.service import ServiceConfig, Tenant, run_service
from repro.sim.faults import FaultPlan, FaultSpec

TENANTS = (
    Tenant("gold", priority=2, share=2.0, rate_hz=40.0, n_jobs=2,
           n_elements=60_000, slo_s=0.5),
    Tenant("silver", priority=1, share=1.0, rate_hz=30.0, n_jobs=2,
           n_elements=60_000),
    Tenant("batch", priority=0, share=0.5, rate_hz=20.0, n_jobs=2,
           n_elements=120_000),
)


def _cfg(allocator="fair-share", **kw):
    return ServiceConfig(allocator=allocator, seed=11, batch_size=20_000,
                         pinned_elements=5_000, **kw)


def _digests(res) -> dict:
    return {r["job_id"]: r["digest"] for r in res.jobs}


@pytest.fixture(scope="module")
def clean():
    """The fault-free single-GPU run every other run is checked against."""
    return run_service(TENANTS, _cfg())


@pytest.mark.parametrize("allocator", ["fair-share", "strict-priority"])
def test_jobs_on_both_gpus_of_platform2(allocator, clean):
    res = run_service(TENANTS, _cfg(allocator, gpus_per_job=1),
                      platform=PLATFORM2)
    assert res.verdict["n_jobs"] == 6
    assert {g for r in res.jobs for g in r["gpus"]} == {0, 1}
    # Every job's output was verified inside the service; the sorted
    # bytes do not depend on the platform or the device.
    assert _digests(res) == _digests(clean)
    peaks = res.memory_ledger.summary()["peak_device_bytes"]
    assert peaks["gpu0"] > 0 and peaks["gpu1"] > 0
    res.memory_ledger.check_balanced()


def test_serve_on_platform2_is_byte_stable():
    argv = ["serve", "--platform", "PLATFORM2", "--timing", "--seed", "3",
            "--json"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        assert main(argv, out=buf) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert '"schema": "repro.service/v1"' in outs[0]


@pytest.mark.parametrize("spec", [
    FaultSpec(kind="bandwidth.degrade", link="pcie.htod", at_s=0.0,
              duration_s=0.1, factor=0.1),
    FaultSpec(kind="gpu.lost", gpu=0, at_s=0.03),
], ids=lambda spec: spec.kind)
def test_timed_faults_fire_in_a_service_run(spec, clean):
    res = run_service(TENANTS, _cfg(), faults=FaultPlan(faults=(spec,)))
    assert res.meta["faults"]["by_kind"] == {spec.kind: 1}
    assert _digests(res) == _digests(clean)
    # The fault moved the schedule: it really happened mid-stream.
    assert ([r["end_s"] for r in res.jobs]
            != [r["end_s"] for r in clean.jobs])
    res.memory_ledger.check_balanced()
    assert all(b == 0 for b in res.memory_ledger.balances.values())
