"""The engine-equivalence battery: the same-instant fast path vs. a
pure-heap reference scheduler.

The engine keeps future events in a binary heap but routes events
scheduled at the *current* instant through two FIFO deques.  The
contract is that this fast path is *invisible* -- events pop in the
exact ``(when, priority, seq)`` order one heap holding every record
would produce, so every downstream artifact of a run is byte-identical.
The reference here schedules every record through the heap (the
engine's historical single-queue order); this battery pins the contract
end to end, through the full sorter stack:

* span ids, dependency edges, and timestamps of the trace;
* the streaming-telemetry event log (``repro.events/v1`` JSONL bytes);
* the canonical run report (critical path included);
* the sweep-ledger lines (conformance record included);
* a chaos run under a random :class:`~repro.sim.faults.FaultPlan`
  (fault/retry/degrade timing rides on the event order too).

Runs are deliberately tiny (60k elements) so the whole battery stays
tier-1 material; the cross product still covers all five approaches on
both platforms.
"""

import heapq
import io

import numpy as np
import pytest

from repro.errors import ReproError, SimulationError
from repro.hetsort import APPROACH_RUNNERS, HeterogeneousSorter
from repro.hw.platforms import PLATFORM1, PLATFORM2
from repro.obs.diff import canonical_json, run_report
from repro.obs.sinks import JsonlSink
from repro.sim import engine as engine_mod
from repro.sim.faults import FaultPlan

APPROACHES = sorted(APPROACH_RUNNERS)
SCHEDULERS = ("fast-path", "heap-only")

N = 60_000
BATCH = 20_000
PINNED = 5_000


def _heap_only_schedule(self, event, delay=0.0, priority=engine_mod.NORMAL):
    """Reference ``Environment.schedule``: every record, same-instant ones
    included, goes through the one heap."""
    if delay < 0:
        raise SimulationError(f"cannot schedule in the past ({delay!r})")
    seq = self._seq
    self._seq = seq + 1
    heapq.heappush(self._future, (self._now + delay, priority, seq, event))


@pytest.fixture
def use_scheduler(monkeypatch):
    """``use_scheduler(name)`` switches every Environment created
    afterwards to the named scheduler (undone at test teardown)."""

    def use(name):
        if name == "heap-only":
            monkeypatch.setattr(engine_mod.Environment, "schedule",
                                _heap_only_schedule)
        else:
            monkeypatch.undo()

    return use


def _run(approach, platform, n_gpus=1, faults=None, seed=11):
    """One full sorter run; returns a dict of every byte-stable artifact
    the battery compares."""
    data = np.random.default_rng(seed).random(N)
    s = HeterogeneousSorter(platform, n_gpus=n_gpus, batch_size=BATCH,
                            pinned_elements=PINNED)
    buf = io.StringIO()
    try:
        res = s.sort(data, approach=approach, faults=faults,
                     sinks=(JsonlSink(buf),))
    except ReproError as exc:
        buf.write(f"# died: {type(exc).__name__}\n")
        return {"event_log": buf.getvalue(), "died": True}
    spans = tuple((sp.id, sp.category, sp.label, sp.lane,
                   sp.start, sp.end, sp.deps)
                  for sp in res.trace.spans)
    return {
        "event_log": buf.getvalue(),
        "spans": spans,
        "elapsed": res.elapsed,
        "report": canonical_json(run_report(res, label="battery")),
        "output": res.output,
        "died": False,
    }


@pytest.mark.parametrize("platform", [PLATFORM1, PLATFORM2],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("approach", APPROACHES)
def test_schedulers_byte_identical(approach, platform, use_scheduler):
    """Every approach on every platform: fast-path and heap-only runs
    agree on spans (ids, deps, times), event-log bytes, and the run
    report."""
    ref = _run(approach, platform)
    use_scheduler("heap-only")
    alt = _run(approach, platform)
    assert not ref["died"] and not alt["died"]
    assert ref["spans"] == alt["spans"]
    assert ref["elapsed"] == alt["elapsed"]
    assert ref["event_log"] == alt["event_log"]
    assert ref["report"] == alt["report"]
    np.testing.assert_array_equal(ref["output"], alt["output"])


def test_chaos_run_byte_identical_across_schedulers(use_scheduler):
    """A random FaultPlan exercises degraded-bandwidth windows, retries
    and GPU loss; the event log must still not depend on the scheduler."""
    plan = FaultPlan.random(7, n_gpus=2)
    logs = {}
    for sched in SCHEDULERS:
        use_scheduler(sched)
        logs[sched] = _run("pipedata", PLATFORM2, n_gpus=2, faults=plan,
                           seed=7)["event_log"]
    assert logs["fast-path"] == logs["heap-only"]
    assert logs["fast-path"]


def test_sweep_ledger_bytes_identical_across_schedulers(use_scheduler):
    """The tiny sweep grid writes byte-identical ledger JSONL under both
    schedulers (conformance model derivation included)."""
    from repro.obs.sweep import run_sweep, sweep_points

    ledgers = {}
    for sched in SCHEDULERS:
        use_scheduler(sched)
        records = run_sweep(sweep_points("tiny"), model_n=4_000_000)
        ledgers[sched] = "\n".join(canonical_json(r, indent=None)
                                   for r in records)
    assert ledgers["fast-path"] == ledgers["heap-only"]
