"""Tests for the streaming telemetry bus and its shipped sinks.

The two load-bearing guarantees:

* **sink neutrality** -- attaching every shipped sink produces a
  byte-identical canonical run report vs. a sink-free run;
* **exact replay** -- the JSONL event log reconstructs span ids, deps
  and counter samples exactly, and a same-seed run writes byte-identical
  log files.
"""

import io
import json

import pytest

from repro.errors import EventLogError
from repro.hetsort import APPROACH_RUNNERS, HeterogeneousSorter
from repro.hw.platforms import PLATFORM1
from repro.obs import (EV, EventBus, JsonlSink, LiveAggregator, Sink,
                       TelemetryEvent, TtySink, WatchdogSink, canonical_json,
                       read_events, replay_events, run_report,
                       validate_event_log, validate_events)


def run_once(approach, sinks=()):
    kw = {} if approach == "bline" else {"batch_size": 250_000}
    sorter = HeterogeneousSorter(PLATFORM1, pinned_elements=50_000, **kw)
    return sorter.sort(n=1_000_000, approach=approach, sinks=sinks)


def all_sinks(buf=None, tty=None):
    return [WatchdogSink(stall_steps=50, queue_wait_steps=50,
                         deadline_s=0.001),
            JsonlSink(buf if buf is not None else io.StringIO()),
            LiveAggregator(),
            TtySink(out=tty if tty is not None else io.StringIO())]


def events_from(buf: io.StringIO, tmp_path, name="run.events.jsonl"):
    path = tmp_path / name
    path.write_text(buf.getvalue())
    return path


# ---------------------------------------------------------------------------
# The bus itself
# ---------------------------------------------------------------------------

class _Collect(Sink):
    def __init__(self):
        self.events = []
        self.steps = 0

    def emit(self, event):
        self.events.append(event)

    def on_step(self, bus):
        self.steps += 1


def test_bus_stamps_clock_and_sequence():
    t = {"now": 0.0}
    bus = EventBus(clock=lambda: t["now"])
    sink = bus.attach(_Collect())
    bus.emit(EV.PHASE, name="a")
    t["now"] = 1.5
    bus.emit(EV.COUNTER, name="x", value=2.0, unit="el")
    assert [(e.kind, e.t, e.seq) for e in sink.events] == \
        [(EV.PHASE, 0.0, 0), (EV.COUNTER, 1.5, 1)]
    bus.detach(sink)
    bus.emit(EV.PHASE, name="b")
    assert len(sink.events) == 2          # detached sinks stop receiving
    assert bus.emit(EV.PHASE, name="c").seq == 3   # seq keeps advancing


def test_event_round_trips_through_dict():
    ev = TelemetryEvent(kind=EV.QUEUE, t=0.25, seq=7,
                        data={"name": "q", "depth": 3})
    assert TelemetryEvent.from_dict(json.loads(
        canonical_json(ev.to_dict(), indent=None))) == ev


# ---------------------------------------------------------------------------
# Sink neutrality (the tentpole invariant)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("approach", sorted(APPROACH_RUNNERS))
def test_sinks_never_perturb_the_run(approach):
    bare = run_once(approach)
    observed = run_once(approach, sinks=all_sinks())

    assert observed.elapsed == bare.elapsed
    assert observed.metrics == bare.metrics

    ra = canonical_json(run_report(bare, label=approach))
    rb = canonical_json(run_report(observed, label=approach))
    assert ra == rb                       # byte-identical canonical report


def test_functional_output_identical_with_sinks():
    import numpy as np
    rng = np.random.default_rng(3)
    data = rng.uniform(size=60_000)
    kw = dict(batch_size=20_000, pinned_elements=5_000)
    a = HeterogeneousSorter(PLATFORM1, **kw).sort(
        data.copy(), approach="pipemerge")
    b = HeterogeneousSorter(PLATFORM1, **kw).sort(
        data.copy(), approach="pipemerge", sinks=all_sinks())
    assert np.array_equal(a.output, b.output)
    assert a.elapsed == b.elapsed


# ---------------------------------------------------------------------------
# JSONL log: round-trip and byte-stability
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("approach", ["bline", "pipedata", "pipemerge"])
def test_jsonl_replay_is_exact(approach, tmp_path):
    buf = io.StringIO()
    res = run_once(approach, sinks=[JsonlSink(buf)])
    header, events = read_events(events_from(buf, tmp_path))
    assert header == {"schema": "repro.events/v1"}

    summary = validate_events(events)
    assert summary["counts"]["span"] == len(res.trace.spans)
    assert summary["counts"]["run.start"] == 1
    assert summary["counts"]["run.end"] == 1
    assert summary["counts"]["phase"] > 0

    trace, recorder = replay_events(events)
    assert len(trace.spans) == len(res.trace.spans)
    for got, want in zip(trace.spans, res.trace.spans):
        assert got == want                # ids, deps, meta, bytes -- all

    # Counter series reconstruct sample for sample.
    assert sorted(recorder.series) == sorted(res.recorder.series)
    for name, series in recorder.series.items():
        original = res.recorder.series[name]
        assert list(series.samples()) == list(original.samples())
        assert series.unit == original.unit


def test_jsonl_log_is_byte_stable(tmp_path):
    """Acceptance gate: two same-seed tiny-grid sweeps write identical
    event-log bytes (and identical ledger records)."""
    from repro.obs.sweep import run_point, sweep_points

    for pt in sweep_points("tiny"):
        logs = []
        for _ in range(2):
            buf = io.StringIO()
            run_point(pt, sinks=[JsonlSink(buf), LiveAggregator(),
                                 WatchdogSink()])
            logs.append(buf.getvalue())
        assert logs[0] == logs[1]
        assert logs[0].splitlines()[0] == '{"schema":"repro.events/v1"}'


def test_run_lifecycle_events(tmp_path):
    buf = io.StringIO()
    res = run_once("pipedata", sinks=[JsonlSink(buf)])
    _, events = read_events(events_from(buf, tmp_path))
    start, end = events[0], events[-1]
    assert start.kind == EV.RUN_START
    assert start.data["approach"] == "pipedata"
    assert start.data["n"] == 1_000_000
    assert start.data["n_batches"] == 4
    assert end.kind == EV.RUN_END
    assert end.data["elapsed_s"] == res.elapsed
    assert end.data["n_spans"] == len(res.trace.spans)
    phases = {e.data["name"] for e in events if e.kind == EV.PHASE}
    assert {"worker.start", "batch.staged", "chunk.htod", "run.sorted",
            "merge.started", "merge.done", "worker.done"} <= phases


# ---------------------------------------------------------------------------
# Validation error paths
# ---------------------------------------------------------------------------

def _ev(kind, t, seq, **data):
    return TelemetryEvent(kind=kind, t=t, seq=seq, data=data)


def test_validate_rejects_bad_streams():
    for kind in ("nope", ["span"], {"span": 1}, 7):   # unhashable too
        with pytest.raises(EventLogError, match="unknown kind"):
            validate_events([_ev(kind, 0.0, 0)])
    with pytest.raises(EventLogError, match="gapless"):
        validate_events([_ev(EV.PHASE, 0.0, 0, name="a"),
                         _ev(EV.PHASE, 0.0, 2, name="b")])
    with pytest.raises(EventLogError, match="precedes"):
        validate_events([_ev(EV.PHASE, 1.0, 0, name="a"),
                         _ev(EV.PHASE, 0.5, 1, name="b")])
    with pytest.raises(EventLogError, match="not first"):
        validate_events([_ev(EV.PHASE, 0.0, 0, name="a"),
                         _ev(EV.RUN_START, 0.0, 1)])
    with pytest.raises(EventLogError, match="not last"):
        validate_events([_ev(EV.RUN_END, 0.0, 0),
                         _ev(EV.PHASE, 0.0, 1, name="a")])
    with pytest.raises(EventLogError, match="missing"):
        validate_events([_ev(EV.SPAN, 0.0, 0, id=0)])
    with pytest.raises(EventLogError, match="recording order"):
        validate_events([_ev(EV.SPAN, 0.0, 0, id=3, category="HtoD",
                             label="x", start=0.0, end=0.1, lane="",
                             nbytes=0.0, elements=0, meta=[], deps=[])])


def test_read_events_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.events.jsonl"
    path.write_text('{"schema":"something/else"}\n')
    with pytest.raises(EventLogError, match="unknown event-log schema"):
        read_events(path)
    path.write_text("")
    with pytest.raises(EventLogError, match="empty"):
        read_events(path)
    path.write_text('{"schema":"repro.events/v1"}\nnot json\n')
    with pytest.raises(EventLogError, match="not valid JSON"):
        read_events(path)


@pytest.mark.parametrize("reader", [read_events, validate_event_log])
@pytest.mark.parametrize("line, kind", [
    ("[]", "list"), ("1", "int"), ('"x"', "str")])
@pytest.mark.parametrize("lineno", [1, 2])
def test_event_log_readers_reject_non_object_lines(tmp_path, reader, line,
                                                  kind, lineno):
    # A non-object line as the schema header (line 1) or as an event.
    path = tmp_path / "bad.events.jsonl"
    header = '{"schema":"repro.events/v1"}\n'
    path.write_text(header * (lineno - 1) + line + "\n")
    with pytest.raises(EventLogError,
                       match=f"bad.events.jsonl:{lineno}: expected a JSON "
                             f"object, got {kind}"):
        reader(path)


def test_validate_event_log_on_real_run(tmp_path):
    buf = io.StringIO()
    run_once("bline", sinks=[JsonlSink(buf)])
    summary = validate_event_log(events_from(buf, tmp_path))
    assert summary["schema"] == "repro.events/v1"
    assert summary["n_events"] == sum(summary["counts"].values())


# ---------------------------------------------------------------------------
# Aggregation, rendering, watchdog
# ---------------------------------------------------------------------------

def test_live_aggregator_snapshot():
    agg = LiveAggregator(model_slope=2.0e-8)
    res = run_once("pipedata", sinks=[agg])
    snap = agg.snapshot()
    assert snap["ended"] and snap["elapsed_s"] == res.elapsed
    assert snap["progress"] == {"batches_completed": 4, "n_batches": 4,
                                "fraction": 1.0, "merge_started": True}
    assert snap["eta_s"] == 0.0
    assert "gpu0" in snap["lanes"]
    assert 0.0 < snap["lanes"]["gpu0"]["utilization"] <= 1.0
    assert snap["categories"]["HtoD"]["fraction"] == 1.0
    assert snap["categories"]["GPUSort"]["fraction"] == 1.0


def test_live_aggregator_model_eta_before_progress():
    agg = LiveAggregator(model_slope=2.0e-8)
    agg.emit(_ev(EV.RUN_START, 0.0, 0, n=1_000_000, n_batches=100))
    # < 10% progress: the lower-bound model supplies the ETA.
    assert agg.eta_s() == pytest.approx(2.0e-8 * 1_000_000)


def test_tty_sink_degrades_to_plain_lines():
    out = io.StringIO()                   # not a TTY
    run_once("pipedata",
             sinks=[TtySink(out=out, plain_interval_s=0.01)])
    text = out.getvalue()
    lines = [ln for ln in text.splitlines() if ln.startswith("live ")]
    assert len(lines) >= 2                # periodic progress lines
    assert "batches=" in lines[0]
    assert "pipedata on PLATFORM1" in text   # the final frame


def test_watchdog_deadline_and_stall(tmp_path):
    buf = io.StringIO()
    run_once("pipedata",
             sinks=[WatchdogSink(stall_steps=10, deadline_s=1e-4),
                    JsonlSink(buf)])
    _, events = read_events(events_from(buf, tmp_path))
    warnings = [e for e in events if e.kind == EV.WARNING]
    codes = {w.data["code"] for w in warnings}
    assert "deadline" in codes
    deadline = next(w for w in warnings if w.data["code"] == "deadline")
    assert deadline.t > 1e-4
    # Warnings are part of the validated stream.
    validate_events(events)


def test_watchdog_flags_pinned_queue():
    bus = EventBus()
    sink = _Collect()
    wd = WatchdogSink(queue_wait_steps=3)
    bus.attach(wd)
    bus.attach(sink)
    bus.emit(EV.QUEUE, name="gpu0.kernel", depth=2, in_use=1, capacity=1)
    for _ in range(5):
        bus._on_step(None)
    pinned = [e for e in sink.events if e.kind == EV.WARNING]
    assert len(pinned) == 1               # one warning per episode
    assert pinned[0].data["code"] == "queue.pinned"
    assert pinned[0].data["queue"] == "gpu0.kernel"
    # Queue drains -> the watchdog re-arms.
    bus.emit(EV.QUEUE, name="gpu0.kernel", depth=0, in_use=0, capacity=1)
    for _ in range(5):
        bus._on_step(None)
    assert len([e for e in sink.events if e.kind == EV.WARNING]) == 1


def test_quiet_watchdog_on_healthy_run(tmp_path):
    """Default thresholds never fire on a healthy tiny run."""
    buf = io.StringIO()
    run_once("pipemerge", sinks=[WatchdogSink(), JsonlSink(buf)])
    _, events = read_events(events_from(buf, tmp_path))
    assert not [e for e in events if e.kind == EV.WARNING]
