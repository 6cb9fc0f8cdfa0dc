"""The shipped :class:`~repro.obs.events.Sink` implementations.

* :class:`JsonlSink` -- a byte-stable ``repro.events/v1`` structured
  log: one canonical-JSON line per event, replayable back into a
  :class:`~repro.sim.trace.Trace` and counter series with
  :func:`replay_events` (exactness pinned by tests), and checked by
  :func:`validate_events` against the field table of
  :mod:`repro.obs.events`;
* :class:`LiveAggregator` -- rolling per-lane throughput, per-category
  progress fractions and an ETA derived from the Sec. IV-G lower-bound
  model (falling back to progress extrapolation);
* :class:`TtySink` -- a throttled terminal renderer (per-lane progress
  bars, utilization, ETA) that degrades to periodic plain lines when
  stdout is not a TTY -- the ``repro run --live`` / ``repro watch``
  view;
* :class:`WatchdogSink` -- publishes ``warning`` events for stalls (no
  span recorded for N engine steps, a queue pinned at capacity with
  waiters) and simulated-deadline overruns.

All sinks obey the neutrality invariant of :mod:`repro.obs.events`:
they observe, they never touch the simulation.
"""

from __future__ import annotations

import sys
import time
import typing as _t
from collections import deque

from repro.errors import EventLogError
from repro.obs.counters import MetricsRecorder
from repro.obs.diff import canonical_json
from repro.obs.events import (_EVENT_FIELDS, _INT, _REAL, EV, EVENTS_SCHEMA,
                              EventBus, Sink, TelemetryEvent)
from repro.schema import field_error, read_jsonl
from repro.sim.trace import CAT, Trace

__all__ = [
    "JsonlSink", "LiveAggregator", "TtySink", "WatchdogSink",
    "read_events", "replay_events", "validate_events", "validate_event_log",
]


# ---------------------------------------------------------------------------
# JSONL structured log
# ---------------------------------------------------------------------------

class JsonlSink(Sink):
    """Write every event as one compact canonical-JSON line.

    The first line is the schema header
    (``{"schema": "repro.events/v1"}``); each following line is one
    :meth:`TelemetryEvent.to_dict`.  Because event times are simulated
    and sequence numbers deterministic, a same-seed run writes
    byte-identical logs -- the property the CI smoke job and the
    acceptance tests pin.

    ``target`` may be a path (opened and owned by the sink) or any
    file-like object (flushed but left open on :meth:`close`).
    """

    def __init__(self, target) -> None:
        if hasattr(target, "write"):
            self._fh = target
            self._owns = False
        else:
            self._fh = open(target, "w")
            self._owns = True
        self._fh.write(canonical_json({"schema": EVENTS_SCHEMA},
                                      indent=None) + "\n")

    def emit(self, event: TelemetryEvent) -> None:
        self._fh.write(canonical_json(event.to_dict(), indent=None) + "\n")

    def close(self) -> None:
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()


_ENVELOPE = {"kind", "t", "seq", "data"}


def read_events(path) -> tuple[dict, list[TelemetryEvent]]:
    """Read a ``repro.events/v1`` JSONL log; returns ``(header,
    events)``.  Raises :class:`~repro.errors.EventLogError` on a file
    :func:`repro.schema.read_jsonl` rejects or an event line without
    ``kind``, ``t``, ``seq`` and an object ``data``."""
    lines = iter(read_jsonl(path, EventLogError, "event-log",
                            EVENTS_SCHEMA, header=True).items())
    _, header = next(lines)
    events = []
    for lineno, doc in lines:
        if not (_ENVELOPE <= doc.keys() and isinstance(doc["data"], dict)):
            raise EventLogError(f"{path}:{lineno}: an event needs kind, "
                                "t, seq and an object data")
        events.append(TelemetryEvent.from_dict(doc))
    return header, events


def validate_events(events: _t.Sequence[TelemetryEvent]) -> dict:
    """Validate an in-memory event stream against the ``repro.events/v1``
    contract; returns a per-kind count summary.

    Checks: known kinds; a gapless ``seq``; numeric, non-decreasing
    times; ``run.start`` / ``run.end`` (if present) first / last; the
    fields :data:`repro.obs.events._EVENT_FIELDS` lists for each kind,
    with their types;
    span ids in recording order with backward deps; no negative pool
    balance or flow rate.  Violations raise
    :class:`~repro.errors.EventLogError`.
    """
    counts: dict[str, int] = dict.fromkeys(_EVENT_FIELDS, 0)
    n_spans = 0
    last_t = 0.0
    for i, ev in enumerate(events):
        # The str check first: an unhashable kind cannot be looked up.
        if not isinstance(ev.kind, str) or ev.kind not in _EVENT_FIELDS:
            raise EventLogError(f"event {i}: unknown kind {ev.kind!r}")
        if ev.seq != i:
            raise EventLogError(
                f"event {i}: sequence {ev.seq} breaks the gapless order")
        if not isinstance(ev.t, _REAL):
            raise EventLogError(f"event {i}: time {ev.t!r} is not a number")
        if ev.t < last_t:
            raise EventLogError(
                f"event {i}: time {ev.t} precedes {last_t}")
        last_t = ev.t
        counts[ev.kind] += 1
        if ev.kind == EV.RUN_START and i != 0:
            raise EventLogError(f"event {i}: run.start is not first")
        if ev.kind == EV.RUN_END and i != len(events) - 1:
            raise EventLogError(f"event {i}: run.end is not last")
        d = ev.data
        problem = field_error(d, _EVENT_FIELDS[ev.kind])
        if problem:
            raise EventLogError(f"event {i}: {ev.kind} {problem}")
        if ev.kind == EV.SPAN:
            if d["id"] != n_spans:
                raise EventLogError(
                    f"event {i}: span id {d['id']} breaks recording "
                    f"order (expected {n_spans}); the log is not a "
                    "complete span stream")
            if not all(isinstance(dep, _INT) and 0 <= dep < n_spans
                       for dep in d["deps"]):
                raise EventLogError(
                    f"event {i}: span {n_spans} has a forward/invalid dep")
            if d["end"] < d["start"]:
                raise EventLogError(
                    f"event {i}: span ends before it starts")
            n_spans += 1
        elif ev.kind in (EV.MEM_ALLOC, EV.MEM_FREE) and d["balance"] < 0:
            raise EventLogError(
                f"event {i}: {ev.kind} drove pool {d['pool']!r} balance "
                "negative")
        elif ev.kind == EV.FLOW_RATE and d["rate"] < 0:
            raise EventLogError(
                f"event {i}: flow.rate granted a negative rate")
    return {"schema": EVENTS_SCHEMA, "n_events": len(events),
            "t_end": last_t, "counts": counts}


def validate_event_log(path) -> dict:
    """Read and validate a JSONL event log file (see
    :func:`validate_events`)."""
    _, events = read_events(path)
    return validate_events(events)


def replay_events(events: _t.Sequence[TelemetryEvent]
                  ) -> tuple[Trace, MetricsRecorder]:
    """Reconstruct the run's :class:`~repro.sim.trace.Trace` (span ids,
    deps, metadata) and counter series from its event stream.

    For a log written by :class:`JsonlSink` during a run the
    reconstruction is *exact*: span ids/deps match the original trace
    and every counter series has identical ``(time, value)`` samples
    (the round-trip tests pin this).
    """
    trace = Trace()
    recorder = MetricsRecorder()
    for ev in events:
        if ev.kind == EV.SPAN:
            d = ev.data
            sid = trace.record(
                d["category"], d["label"], d["start"], d["end"],
                lane=d["lane"], nbytes=d["nbytes"],
                elements=d["elements"],
                meta=[tuple(kv) for kv in d["meta"]], deps=d["deps"])
            if sid != d["id"]:
                raise EventLogError(
                    f"span id mismatch on replay: recorded {sid}, "
                    f"logged {d['id']} (incomplete span stream?)")
        elif ev.kind == EV.COUNTER:
            d = ev.data
            recorder.series_for(d["name"], unit=d.get("unit", "")) \
                .add(ev.t, d["value"])
    return trace, recorder


# ---------------------------------------------------------------------------
# Rolling aggregation
# ---------------------------------------------------------------------------

#: Per-category "bytes expected end to end" factors relative to ``n *
#: 8`` bytes (one full pass HtoD, one DtoH, staging touches the data
#: twice).  Progress fractions are estimates -- approaches that move
#: extra data (GPUMERGE's merge tree) simply saturate at 1.0.
_EXPECTED_BYTE_PASSES = {CAT.HTOD: 1.0, CAT.DTOH: 1.0, CAT.MCPY: 2.0}


class LiveAggregator(Sink):
    """Fold the event stream into a live snapshot: rolling per-lane
    throughput, per-category progress fractions, batch progress and an
    ETA.

    ``model_slope`` (seconds per element, e.g. from
    :func:`repro.model.lowerbound.measure_bline_throughput`) grounds
    the ETA in the Sec. IV-G lower-bound model; once enough batches
    completed the extrapolated progress ETA takes over (the model is a
    *lower* bound, so it systematically undershoots for the blocking
    approaches).  ``window_s`` is the rolling-throughput window in
    simulated seconds.
    """

    def __init__(self, window_s: float = 0.5,
                 model_slope: float | None = None) -> None:
        self.window_s = float(window_s)
        self.model_slope = model_slope
        self.t = 0.0
        self.run: dict = {}
        self.ended = False
        self.elapsed_s: float | None = None
        self.batches_completed = 0
        self.merge_started = False
        self.warnings: list[dict] = []
        self.queues: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.memory: dict[str, dict] = {}
        self.flows_in_flight = 0
        self.flows_completed = 0
        self._lanes: dict[str, dict] = {}
        self._cats: dict[str, dict] = {}

    # -- event folding -------------------------------------------------------

    def emit(self, event: TelemetryEvent) -> None:
        self.t = max(self.t, event.t)
        d = event.data
        if event.kind == EV.SPAN:
            lane = self._lanes.setdefault(
                d["lane"], {"busy_s": 0.0, "bytes": 0.0, "spans": 0,
                            "window": deque()})
            dur = d["end"] - d["start"]
            lane["busy_s"] += dur
            lane["bytes"] += d["nbytes"]
            lane["spans"] += 1
            lane["window"].append((d["end"], d["nbytes"]))
            cat = self._cats.setdefault(
                d["category"], {"busy_s": 0.0, "bytes": 0.0, "elements": 0})
            cat["busy_s"] += dur
            cat["bytes"] += d["nbytes"]
            cat["elements"] += d["elements"]
        elif event.kind == EV.QUEUE:
            self.queues[d["name"]] = d["depth"]
        elif event.kind == EV.COUNTER:
            self.counters[d["name"]] = d["value"]
        elif event.kind == EV.PHASE:
            if d["name"] == "run.sorted":
                self.batches_completed += 1
            elif d["name"] == "merge.started":
                self.merge_started = True
        elif event.kind == EV.RUN_START:
            self.run = dict(d)
        elif event.kind == EV.RUN_END:
            self.ended = True
            self.elapsed_s = d.get("elapsed_s")
        elif event.kind == EV.WARNING:
            self.warnings.append(dict(d))
        elif event.kind in (EV.MEM_ALLOC, EV.MEM_FREE):
            pool = self.memory.setdefault(
                d["pool"], {"bytes": 0, "peak_bytes": 0,
                            "capacity_bytes": None})
            pool["bytes"] = d["balance"]
            if d["balance"] > pool["peak_bytes"]:
                pool["peak_bytes"] = d["balance"]
        elif event.kind == EV.MEM_WATERMARK:
            pool = self.memory.setdefault(
                d["pool"], {"bytes": 0, "peak_bytes": 0,
                            "capacity_bytes": None})
            pool["peak_bytes"] = d["peak_bytes"]
            if d.get("capacity_bytes") is not None:
                pool["capacity_bytes"] = d["capacity_bytes"]
        elif event.kind == EV.FLOW_START:
            self.flows_in_flight += 1
        elif event.kind == EV.FLOW_END:
            self.flows_in_flight -= 1
            self.flows_completed += 1

    # -- derived views -------------------------------------------------------

    def progress_fraction(self) -> float | None:
        """Completed batches / planned batches (None before run.start)."""
        n_batches = self.run.get("n_batches")
        if not n_batches:
            return None
        return min(1.0, self.batches_completed / n_batches)

    def eta_s(self) -> float | None:
        """Estimated remaining simulated seconds (None when unknowable).

        Progress extrapolation once >= 10% of batches completed;
        otherwise the lower-bound model's ``slope * n - t``.
        """
        frac = self.progress_fraction()
        n = self.run.get("n")
        if frac is not None and frac >= 0.1 and self.t > 0:
            return self.t * (1.0 - frac) / frac
        if self.model_slope is not None and n:
            remaining = self.model_slope * n - self.t
            # The model is a *lower* bound; once the run outlives it the
            # estimate carries no information -- report unknown.
            return remaining if remaining > 0 else None
        return None

    def snapshot(self) -> dict:
        """The current aggregate view (plain JSON-serialisable dict)."""
        lanes = {}
        for name, lane in sorted(self._lanes.items()):
            window = lane["window"]
            horizon = self.t - self.window_s
            while window and window[0][0] < horizon:
                window.popleft()
            lanes[name] = {
                "busy_s": lane["busy_s"],
                "utilization": (lane["busy_s"] / self.t
                                if self.t > 0 else 0.0),
                "throughput_B_s": (sum(b for _, b in window) / self.window_s
                                   if self.window_s > 0 else 0.0),
                "spans": lane["spans"],
            }
        n = self.run.get("n") or 0
        cats = {}
        for name, cat in sorted(self._cats.items()):
            passes = _EXPECTED_BYTE_PASSES.get(name)
            frac = None
            if passes and n:
                frac = min(1.0, cat["bytes"] / (passes * n * 8.0))
            elif name == CAT.GPUSORT and n:
                frac = min(1.0, cat["elements"] / n)
            cats[name] = {"busy_s": cat["busy_s"], "bytes": cat["bytes"],
                          "fraction": frac}
        return {
            "t": self.t,
            "run": dict(self.run),
            "progress": {
                "batches_completed": self.batches_completed,
                "n_batches": self.run.get("n_batches"),
                "fraction": self.progress_fraction(),
                "merge_started": self.merge_started,
            },
            "eta_s": self.eta_s(),
            "lanes": lanes,
            "categories": cats,
            "queues": dict(sorted(self.queues.items())),
            "counters": dict(sorted(self.counters.items())),
            "memory": {name: dict(pool) for name, pool in
                       sorted(self.memory.items(),
                              key=lambda kv: (kv[0] == "pinned", kv[0]))},
            "warnings": len(self.warnings),
            "last_warning": (self.warnings[-1].get("message")
                             if self.warnings else None),
            "ended": self.ended,
            "elapsed_s": self.elapsed_s,
        }


# ---------------------------------------------------------------------------
# Terminal renderer
# ---------------------------------------------------------------------------

class TtySink(Sink):
    """Render the aggregated view to a terminal while the run executes.

    On a TTY the view is redrawn in place (ANSI cursor movement),
    throttled to ``refresh_wall_s`` *wall-clock* seconds so rendering
    never slows a fast simulation down.  When ``out`` is not a TTY the
    sink degrades to one plain progress line every
    ``plain_interval_s`` *simulated* seconds (CI-friendly).  A final
    frame is always rendered on ``run.end`` / :meth:`close`.
    """

    def __init__(self, out=None, aggregator: LiveAggregator | None = None,
                 model_slope: float | None = None,
                 refresh_wall_s: float = 0.2,
                 plain_interval_s: float = 0.25, width: int = 72) -> None:
        self.out = out if out is not None else sys.stdout
        self.agg = aggregator if aggregator is not None else \
            LiveAggregator(model_slope=model_slope)
        self.width = width
        self.refresh_wall_s = refresh_wall_s
        self.plain_interval_s = plain_interval_s
        self._is_tty = bool(getattr(self.out, "isatty", lambda: False)())
        self._last_wall = 0.0
        self._next_plain_t = plain_interval_s
        self._block_lines = 0
        self._closed = False

    def emit(self, event: TelemetryEvent) -> None:
        self.agg.emit(event)
        if event.kind == EV.WARNING and not self._is_tty:
            self.out.write(f"WARNING [{event.data.get('code')}] "
                           f"t={event.t:.4f}s: "
                           f"{event.data.get('message')}\n")
        elif event.kind == EV.RUN_END:
            self._render_final()

    def on_step(self, bus: EventBus) -> None:
        if self._is_tty:
            wall = time.monotonic()
            if wall - self._last_wall >= self.refresh_wall_s:
                self._last_wall = wall
                self._render_block()
        else:
            t = bus.clock()
            if t >= self._next_plain_t:
                from repro.reporting.live import render_plain_line
                self.out.write(render_plain_line(self.agg.snapshot()) + "\n")
                while self._next_plain_t <= t:
                    self._next_plain_t += self.plain_interval_s

    def close(self) -> None:
        if not self._closed and not self.agg.ended:
            self._render_final()
        self._closed = True

    # -- rendering -----------------------------------------------------------

    def _render_block(self) -> None:
        from repro.reporting.live import render_snapshot
        text = render_snapshot(self.agg.snapshot(), width=self.width)
        lines = text.count("\n") + 1
        if self._block_lines:
            # Rewind over the previous frame and clear to screen end.
            self.out.write(f"\x1b[{self._block_lines}F\x1b[J")
        self.out.write(text + "\n")
        self._block_lines = lines
        if hasattr(self.out, "flush"):
            self.out.flush()

    def _render_final(self) -> None:
        from repro.reporting.live import render_snapshot
        if self._block_lines:
            self.out.write(f"\x1b[{self._block_lines}F\x1b[J")
            self._block_lines = 0
        self.out.write(render_snapshot(self.agg.snapshot(),
                                       width=self.width) + "\n")
        if hasattr(self.out, "flush"):
            self.out.flush()


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------

class WatchdogSink(Sink):
    """Publish ``warning`` events for stalls and deadline overruns.

    * **span stall** -- no span recorded for ``stall_steps`` engine
      steps (the pipeline is churning through events without finishing
      any timed operation);
    * **pinned queue** -- a resource stayed fully occupied with waiters
      queued, or a store's getters stayed blocked, for
      ``queue_wait_steps`` consecutive engine steps (head-of-line
      blocking);
    * **deadline** -- simulated time passed ``deadline_s``.

    One warning is published per episode (re-armed when the condition
    clears).  Thresholds are engine *steps*, not seconds, so verdicts
    are deterministic and byte-stable in the JSONL log (see
    EXPERIMENTS.md for how the defaults were chosen).  Warnings are
    diagnostics only -- the run itself is never altered.
    """

    def __init__(self, stall_steps: int = 2000,
                 queue_wait_steps: int = 2000,
                 deadline_s: float | None = None) -> None:
        self.stall_steps = int(stall_steps)
        self.queue_wait_steps = int(queue_wait_steps)
        self.deadline_s = deadline_s
        self._steps_since_span = 0
        self._stalled = False
        self._deadline_warned = False
        self._pinned: dict[str, int] = {}      # queue name -> steps pinned
        self._pinned_warned: set[str] = set()
        self._ended = False

    def emit(self, event: TelemetryEvent) -> None:
        if event.kind == EV.SPAN:
            self._steps_since_span = 0
            self._stalled = False
        elif event.kind == EV.QUEUE:
            d = event.data
            # Only capacity-limited resources can be "pinned": full with
            # waiters queued.  Stores' blocked getters are normal
            # consumer idling, not head-of-line blocking.
            pinned = ("capacity" in d and d["depth"] > 0
                      and d.get("in_use", 0) >= d["capacity"])
            name = d["name"]
            if pinned:
                self._pinned.setdefault(name, 0)
            else:
                self._pinned.pop(name, None)
                self._pinned_warned.discard(name)
        elif event.kind == EV.RUN_END:
            self._ended = True

    def on_step(self, bus: EventBus) -> None:
        if self._ended:
            return
        self._steps_since_span += 1
        if self._steps_since_span > self.stall_steps and not self._stalled:
            self._stalled = True
            bus.emit(EV.WARNING, code="stall",
                     message=f"no span recorded for "
                             f"{self._steps_since_span} engine steps",
                     steps=self._steps_since_span)
        for name in list(self._pinned):
            self._pinned[name] += 1
            if self._pinned[name] > self.queue_wait_steps \
                    and name not in self._pinned_warned:
                self._pinned_warned.add(name)
                bus.emit(
                    EV.WARNING, code="queue.pinned",
                    message=f"queue {name!r} pinned at capacity with "
                            f"waiters for {self._pinned[name]} engine steps",
                    queue=name, steps=self._pinned[name])
        if self.deadline_s is not None and not self._deadline_warned:
            now = bus.clock()
            if now > self.deadline_s:
                self._deadline_warned = True
                bus.emit(
                    EV.WARNING, code="deadline",
                    message=f"run passed its {self.deadline_s:g} s "
                            f"deadline at t={now:.6f} s",
                    deadline_s=self.deadline_s, t=now)
