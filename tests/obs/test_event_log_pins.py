"""Byte pins for the ``repro.events/v1`` event log.

Each scenario runs once with a :class:`JsonlSink` and a
:class:`WatchdogSink` attached, and the SHA-256 of the JSONL log is
frozen below.  The scenarios cover every emission point a single run or
a service run reaches: spans, queues, counters, phases, memory and flow
events, injected faults with their retries, graceful-degradation
replans, and the service's job lifecycle and controller epochs.

A change to how observers are wired must leave every digest unchanged;
a change to what a run emits must update the pin deliberately.  Run as
a script to print each scenario's digest and event-kind counts.
"""

from __future__ import annotations

import collections
import hashlib
import io
import json

import pytest

from repro import PLATFORM1, PLATFORM2, HeterogeneousSorter
from repro.obs.sinks import JsonlSink, WatchdogSink
from repro.service import ServiceConfig, Tenant, run_service
from repro.sim.faults import FaultPlan, FaultSpec
from repro.workloads import generate


def _functional(faults=None):
    """Functional PIPEMERGE on PLATFORM1: n=2e5, b_s=5e4, p_s=1e4."""
    def run(sinks):
        data = generate(200_000, "uniform", seed=0)
        sorter = HeterogeneousSorter(PLATFORM1, batch_size=50_000,
                                     pinned_elements=10_000)
        sorter.sort(data, approach="pipemerge", sinks=sinks, faults=faults)
    return run


def _pipedata_two_gpus(sinks):
    HeterogeneousSorter(PLATFORM2, n_gpus=2).sort(
        n=2_000_000, approach="pipedata", sinks=sinks)


TENANTS = (
    Tenant("gold", priority=2, share=2.0, rate_hz=40.0, n_jobs=2,
           n_elements=50_000, slo_s=0.5),
    Tenant("batch", priority=0, share=0.5, rate_hz=20.0, n_jobs=2,
           n_elements=100_000),
)


def _service(sinks):
    run_service(TENANTS, ServiceConfig(
        allocator="fixed-levels", controller=True, functional=False,
        seed=3, batch_size=20_000, pinned_elements=5_000), sinks=sinks)


#: name -> (run(sinks), SHA-256 of the log, kinds the log must contain)
SCENARIOS = {
    "functional-pipemerge": (
        _functional(),
        "49c1b0825de526c921a32af875982a67542cdd0f834153da89a5657d35d87338",
        {"phase": 38, "queue": 180, "counter": 278}),
    "functional-pipemerge-random17": (
        _functional(FaultPlan.random(17)),
        "6dbb5d89d2b13ea0c7fa9d181d9f61dca8569243aff74a5419cd29643ee5c28c",
        {"fault.injected": 8, "retry.attempt": 8}),
    "functional-pipemerge-pinned50": (
        _functional(FaultPlan(faults=(
            FaultSpec(kind="alloc.pinned", times=50),))),
        "77846bdb8b1d06e2a333368903a7225330d45407d3dc1052d719dae8c0116126",
        {"fault.injected": 8, "retry.attempt": 6, "degrade.replan": 6}),
    "timing-pipedata-platform2-2gpus": (
        _pipedata_two_gpus,
        "36cfce83ea8e6632008984321165dd9fa0fe128ddfe493140b870749187b7c93",
        {"mem.alloc": 3, "flow.start": 9}),
    "timing-service-fixed-levels": (
        _service,
        "3d46d8f3dff4b10bc5027b7edc9f8d92790f7d75143648a77a7774c986e2c173",
        {"service.job.submit": 4, "service.job.start": 4,
         "service.job.end": 4, "service.epoch": 3}),
}


def event_log(run) -> str:
    """The JSONL log one scenario writes."""
    buf = io.StringIO()
    run([JsonlSink(buf), WatchdogSink()])
    return buf.getvalue()


def kind_counts(log: str) -> dict[str, int]:
    lines = log.splitlines()[1:]
    return dict(collections.Counter(json.loads(ln)["kind"] for ln in lines))


def digest(log: str) -> str:
    return hashlib.sha256(log.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_log_bytes_are_pinned(name):
    run, pinned, kinds = SCENARIOS[name]
    log = event_log(run)
    assert log.splitlines()[0] == '{"schema":"repro.events/v1"}'
    counts = kind_counts(log)
    for kind, count in kinds.items():
        assert counts.get(kind) == count, (kind, counts)
    assert digest(log) == pinned


if __name__ == "__main__":
    for name, (run, _, _) in SCENARIOS.items():
        log = event_log(run)
        print(f"{name}  {digest(log)}")
        print(f"    {kind_counts(log)}")
