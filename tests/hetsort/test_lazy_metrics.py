"""``SortResult.metrics`` is built on first read, and what it builds is
exactly what an eager post-run assembly gives.

The differential half pins the copy-free :meth:`FlowLedger.summary` and
the deferred metrics dict bit for bit against references assembled from
the public analyses; the contract half counts the analyses' calls.
"""

import numpy as np
import pytest

from repro.errors import MemoryLedgerError
from repro.hetsort import HeterogeneousSorter, cpu_reference_sort
from repro.hetsort import session as session_mod
from repro.hetsort import sorter as sorter_mod
from repro.hw.platforms import PLATFORM1, PLATFORM2
from repro.obs import (FlowLedger, attribute_contention, canonical_json,
                       compute_metrics, link_peaks)
from repro.obs.memory import MemoryLedger
from repro.sim.engine import Environment
from repro.sim.faults import FaultPlan, FaultSpec

N = 20_000_000
BATCH = 2_000_000

# name -> (platform, n_gpus, approach, sort kwargs)
CASES = {
    "bline": (PLATFORM1, 1, "bline", {}),
    "blinemulti": (PLATFORM1, 1, "blinemulti", {"batch_size": BATCH}),
    "pipedata": (PLATFORM1, 1, "pipedata", {"batch_size": BATCH}),
    "pipemerge": (PLATFORM1, 1, "pipemerge", {"batch_size": BATCH}),
    "gpumerge": (PLATFORM1, 1, "gpumerge", {"batch_size": BATCH}),
    "pipedata-p2-2gpu": (PLATFORM2, 2, "pipedata", {"batch_size": BATCH}),
    "functional": (PLATFORM1, 1, "pipemerge",
                   {"batch_size": 50_000, "pinned_elements": 10_000}),
    "degraded": (PLATFORM1, 1, "pipedata", {"batch_size": 5_000_000}),
}


def _reference_flow_summary(ledger: FlowLedger) -> dict:
    """The flow summary computed from a full ``repro.flows/v1`` copy
    through the public analyses."""
    doc = ledger.to_dict()
    peaks = {name: d["peak_utilization"]
             for name, d in link_peaks(doc).items()}
    return {
        "n_flows": ledger.n_flows,
        "bytes_moved": ledger.bytes_moved,
        "spans_bound": ledger.spans_bound,
        "peak_utilization": peaks,
        "link_peak_utilization": max(peaks.values(), default=0.0),
        "transfer_contention_s":
            attribute_contention(doc)["total_contention_s"],
    }


def _eager_reference(res, processed_events: int) -> dict:
    """The metrics dict assembled eagerly, block by block."""
    metrics = compute_metrics(res.trace, elapsed=res.elapsed,
                              counters=res.recorder.summary(res.elapsed))
    metrics["memory"] = res.memory_ledger.summary()
    metrics["flows"] = _reference_flow_summary(res.flow_ledger)
    metrics["engine"] = {
        "processed_events": processed_events,
        "events_per_sim_s": processed_events / res.elapsed,
    }
    return metrics


def _run(name: str, monkeypatch):
    """One case's result and its engine's processed-event count."""
    platform, n_gpus, approach, kw = CASES[name]
    envs = []

    class _Recording(Environment):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            envs.append(self)

    monkeypatch.setattr(session_mod, "Environment", _Recording)
    sorter = HeterogeneousSorter(platform, n_gpus=n_gpus, **kw)
    if name == "functional":
        data = np.random.default_rng(3).uniform(size=200_000)
        res = sorter.sort(data=data, approach=approach)
    elif name == "degraded":
        # Two abutting windows on one link, so capacity events land.
        plan = FaultPlan(faults=(
            FaultSpec(kind="bandwidth.degrade", link="pcie.htod",
                      at_s=0.001, duration_s=0.002, factor=0.5),
            FaultSpec(kind="bandwidth.degrade", link="pcie.htod",
                      at_s=0.003, duration_s=0.002, factor=0.5)))
        res = sorter.sort(n=20_000_000, approach=approach, faults=plan)
    else:
        res = sorter.sort(n=N, approach=approach)
    (env,) = envs
    return res, env.processed_events


@pytest.mark.parametrize("name", sorted(CASES))
def test_flow_summary_matches_the_full_document(name, monkeypatch):
    res, _ = _run(name, monkeypatch)
    got = res.flow_ledger.summary()
    ref = _reference_flow_summary(res.flow_ledger)
    assert got == ref
    assert canonical_json(got) == canonical_json(ref)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lazy_metrics_match_an_eager_assembly(name, monkeypatch):
    res, events = _run(name, monkeypatch)
    ref = _eager_reference(res, events)
    assert list(res.metrics) == list(ref)
    assert canonical_json(res.metrics) == canonical_json(ref)


def test_degraded_run_exercises_capacity_events(monkeypatch):
    res, _ = _run("degraded", monkeypatch)
    events = res.flow_ledger.capacity_events
    nominal = res.flow_ledger.capacities["pcie.htod"]
    assert [e[2] for e in events if e[1] == "pcie.htod"][-1] == nominal
    assert len(events) >= 2


# ---------------------------------------------------------------------------
# The laziness contract
# ---------------------------------------------------------------------------

@pytest.fixture
def calls(monkeypatch):
    """Counts calls to the two post-run analyses."""
    counts = {"compute_metrics": 0, "flow_summary": 0}
    real_metrics = sorter_mod.compute_metrics
    real_summary = FlowLedger.summary

    def counting_metrics(*a, **k):
        counts["compute_metrics"] += 1
        return real_metrics(*a, **k)

    def counting_summary(self):
        counts["flow_summary"] += 1
        return real_summary(self)

    monkeypatch.setattr(sorter_mod, "compute_metrics", counting_metrics)
    monkeypatch.setattr(FlowLedger, "summary", counting_summary)
    return counts


def _sort():
    return HeterogeneousSorter(PLATFORM1, batch_size=BATCH).sort(
        n=N, approach="pipemerge")


def test_sort_runs_no_post_run_analysis(calls):
    _sort()
    assert calls == {"compute_metrics": 0, "flow_summary": 0}


def test_first_read_builds_once_and_caches(calls):
    res = _sort()
    first = res.metrics
    assert calls == {"compute_metrics": 1, "flow_summary": 1}
    assert res.metrics is first
    assert res.overlap_efficiency == first["overlap_efficiency"]
    assert calls == {"compute_metrics": 1, "flow_summary": 1}
    assert type(first) is dict


def test_attached_conformance_reaches_to_dict(calls):
    from repro.model.lowerbound import measure_bline_throughput
    from repro.obs import attach_conformance
    res = _sort()
    model = measure_bline_throughput(PLATFORM1, n=N)
    record = attach_conformance(res, model)
    assert res.to_dict()["metrics"]["conformance"] is record
    assert calls["compute_metrics"] == 1


def test_cpu_reference_metrics_are_lazy_and_trace_only(calls):
    ref = cpu_reference_sort(PLATFORM1, n=10 ** 7)
    assert calls["compute_metrics"] == 0
    expected = compute_metrics(ref.trace, elapsed=ref.elapsed,
                               counters=ref.recorder.summary(ref.elapsed))
    assert canonical_json(ref.metrics) == canonical_json(expected)
    assert calls == {"compute_metrics": 1, "flow_summary": 0}
    assert ref.flows is None


def test_leaking_ledger_raises_at_sort_time(calls, monkeypatch):
    monkeypatch.setattr(MemoryLedger, "device_free",
                        lambda self, gpu, nbytes, name="": None)
    with pytest.raises(MemoryLedgerError):
        _sort()
    assert calls == {"compute_metrics": 0, "flow_summary": 0}
