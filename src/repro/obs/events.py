"""The streaming telemetry bus: typed publish/subscribe events emitted
*while* a heterogeneous sort runs.

Everything built by the earlier observability layers (metrics, causal
tracing, conformance) is post-hoc -- nothing is visible until the run
finishes.  The :class:`EventBus` closes that blind spot: instrumented
emission points inside the simulator publish typed
:class:`TelemetryEvent` s as they happen --

* ``span``    -- every :meth:`repro.sim.trace.Trace.record` call;
* ``queue``   -- every :class:`~repro.sim.resources.Resource` /
  :class:`~repro.sim.resources.Store` state change (queue depths,
  units in use);
* ``counter`` -- every :class:`~repro.obs.counters.MetricsRecorder`
  sample;
* ``phase``   -- pipeline phase transitions published by the approach
  runners (batch staged, chunk HtoD'd, run sorted, merge started);
* ``run.start`` / ``run.end`` -- run lifecycle with the plan context;
* ``warning`` -- stall / deadline diagnostics published by the
  :class:`~repro.obs.sinks.WatchdogSink`;
* ``fault.injected`` / ``retry.attempt`` / ``degrade.replan`` -- the
  chaos layer (:mod:`repro.sim.faults` scheduling faults,
  :mod:`repro.hetsort.resilience` recovering from them).

Subscribers implement the :class:`Sink` protocol
(:mod:`repro.obs.sinks` ships a byte-stable JSONL structured log, a
rolling aggregator with ETA, a throttled TTY renderer and a stall /
deadline watchdog).

**The neutrality invariant.**  Emission is strictly passive: no bus or
sink may schedule simulation events, request resources, or otherwise
touch the :class:`~repro.sim.engine.Environment`.  Attaching or
detaching any sink therefore never perturbs the simulated timeline or
the canonical run report -- the determinism tests pin this byte for
byte.  With no bus attached every emission point is a single ``is
None`` check (the same zero-overhead-when-disabled contract the
counter probes and kernel profiler follow).

The bus is wired into the simulator in one place,
:class:`~repro.hetsort.session.RunSession`, with one hook per object.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

__all__ = ["EV", "TelemetryEvent", "Sink", "EventBus"]

#: Schema identifier of the serialized event stream (see
#: :class:`repro.obs.sinks.JsonlSink`).
EVENTS_SCHEMA = "repro.events/v1"


class EV:
    """Canonical telemetry event kinds."""

    RUN_START = "run.start"   #: run lifecycle: plan + config context
    RUN_END = "run.end"       #: run lifecycle: elapsed / makespan
    SPAN = "span"             #: a trace span was recorded
    QUEUE = "queue"           #: a resource/store queue changed state
    COUNTER = "counter"       #: a counter/gauge sample was recorded
    PHASE = "phase"           #: a pipeline phase transition
    WARNING = "warning"       #: watchdog diagnostics (stall, deadline)
    FAULT = "fault.injected"  #: a scheduled fault fired (chaos plans)
    RETRY = "retry.attempt"   #: a faulted operation backed off to retry
    DEGRADE = "degrade.replan"  #: graceful degradation (fallback/replan)
    MEM_ALLOC = "mem.alloc"     #: a device/pinned allocation was recorded
    MEM_FREE = "mem.free"       #: a device/pinned release was recorded
    MEM_WATERMARK = "mem.watermark"  #: a pool reached a new peak occupancy
    FLOW_START = "flow.start"   #: a bandwidth flow joined the network
    FLOW_RATE = "flow.rate"     #: the allocator changed a flow's rate
    FLOW_END = "flow.end"       #: a bandwidth flow completed
    JOB_SUBMIT = "service.job.submit"  #: a sort job entered the service
    JOB_START = "service.job.start"    #: a job was admitted and started
    JOB_END = "service.job.end"        #: a job completed (latency known)
    EPOCH = "service.epoch"     #: an adaptive-controller control epoch

    ALL = (RUN_START, RUN_END, SPAN, QUEUE, COUNTER, PHASE, WARNING,
           FAULT, RETRY, DEGRADE, MEM_ALLOC, MEM_FREE, MEM_WATERMARK,
           FLOW_START, FLOW_RATE, FLOW_END,
           JOB_SUBMIT, JOB_START, JOB_END, EPOCH)


@dataclass(frozen=True)
class TelemetryEvent:
    """One published telemetry event.

    ``t`` is *simulated* seconds (the bus clock), ``seq`` the bus-wide
    monotonic sequence number; together they give every event a stable,
    deterministic identity -- the property the byte-stable JSONL log
    relies on.
    """

    kind: str
    t: float
    seq: int
    data: dict

    def to_dict(self) -> dict:
        """JSON-serialisable form (one ``repro.events/v1`` line)."""
        return {"kind": self.kind, "t": self.t, "seq": self.seq,
                "data": self.data}

    @classmethod
    def from_dict(cls, doc: dict) -> "TelemetryEvent":
        return cls(kind=doc["kind"], t=doc["t"], seq=doc["seq"],
                   data=dict(doc.get("data", {})))


class Sink:
    """Base class for event-bus subscribers.

    Subclasses override :meth:`emit`; the other hooks are optional.
    Sinks are observers only -- they must never schedule simulation
    events or mutate simulation state (the neutrality invariant).
    """

    def emit(self, event: TelemetryEvent) -> None:
        """Receive one published event."""

    def on_step(self, bus: "EventBus") -> None:
        """Called after every engine step (``bus.steps`` counts them).

        Engine steps are deliberately *not* published as events -- they
        would dominate the log -- but step granularity is what the
        watchdog's stall detection and the TTY renderer's refresh need.
        """

    def close(self) -> None:
        """Flush and release any resources (end of run / end of watch)."""


class EventBus:
    """Typed publish/subscribe fan-out for telemetry events.

    ``clock`` is a zero-argument callable returning the current
    simulated time (normally ``lambda: env.now``); every published
    event is stamped with it plus a monotonic sequence number.
    """

    def __init__(self, clock: _t.Callable[[], float] | None = None) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._sinks: list[Sink] = []
        self._seq = 0
        #: Engine steps observed so far (driven by the engine hook).
        self.steps = 0

    # -- subscription --------------------------------------------------------

    def attach(self, sink: Sink) -> Sink:
        """Subscribe ``sink``; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    def detach(self, sink: Sink) -> None:
        """Unsubscribe a sink added with :meth:`attach`."""
        self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return tuple(self._sinks)

    def close(self) -> None:
        """Close every attached sink (in attachment order)."""
        for sink in self._sinks:
            sink.close()

    # -- publishing ----------------------------------------------------------

    def emit(self, kind: str, /, **data) -> TelemetryEvent:
        """Publish one event to every sink; returns it."""
        event = TelemetryEvent(kind=kind, t=self.clock(), seq=self._seq,
                               data=data)
        self._seq += 1
        for sink in self._sinks:
            sink.emit(event)
        return event

    # Typed emission helpers -- one per instrumented emission point.

    def span(self, span) -> None:
        """A :class:`~repro.sim.trace.Span` was recorded (full record:
        the JSONL log can be replayed back into a ``Trace``)."""
        self.emit(EV.SPAN, id=span.id, category=span.category,
                  label=span.label, start=span.start, end=span.end,
                  lane=span.lane, nbytes=span.nbytes,
                  elements=span.elements,
                  meta=[list(kv) for kv in span.meta],
                  deps=list(span.deps))

    def queue(self, name: str, depth: int, **state) -> None:
        """A resource/store queue changed (``depth`` = waiters/items)."""
        self.emit(EV.QUEUE, name=name, depth=depth, **state)

    def counter(self, name: str, value: float, unit: str = "") -> None:
        """A counter/gauge sample was recorded."""
        self.emit(EV.COUNTER, name=name, value=value, unit=unit)

    def phase(self, name: str, **data) -> None:
        """A pipeline phase transition (published by approach runners)."""
        self.emit(EV.PHASE, name=name, **data)

    def warning(self, code: str, message: str, **data) -> None:
        """A watchdog diagnostic (stall, deadline overrun)."""
        self.emit(EV.WARNING, code=code, message=message, **data)

    def fault(self, kind: str, **data) -> None:
        """A scheduled fault fired (published by the
        :class:`~repro.sim.faults.FaultInjector`)."""
        self.emit(EV.FAULT, kind=kind, **data)

    def retry(self, what: str, attempt: int, **data) -> None:
        """A faulted operation backed off before retrying."""
        self.emit(EV.RETRY, what=what, attempt=attempt, **data)

    def degrade(self, reason: str, **data) -> None:
        """A graceful-degradation decision (CPU fallback, replan)."""
        self.emit(EV.DEGRADE, reason=reason, **data)

    def mem_alloc(self, pool: str, name: str, nbytes: int,
                  balance: int) -> None:
        """The :class:`~repro.obs.memory.MemoryLedger` recorded an
        allocation (``balance`` = the pool's occupancy after it)."""
        self.emit(EV.MEM_ALLOC, pool=pool, name=name, nbytes=nbytes,
                  balance=balance)

    def mem_free(self, pool: str, name: str, nbytes: int,
                 balance: int) -> None:
        """The ledger recorded a release."""
        self.emit(EV.MEM_FREE, pool=pool, name=name, nbytes=nbytes,
                  balance=balance)

    def mem_watermark(self, pool: str, peak_bytes: int,
                      capacity_bytes: int | None = None) -> None:
        """A pool reached a new high-watermark occupancy."""
        self.emit(EV.MEM_WATERMARK, pool=pool, peak_bytes=peak_bytes,
                  capacity_bytes=capacity_bytes)

    def flow_start(self, fid: int, nbytes: float, links: list,
                   label: str = "flow") -> None:
        """The :class:`~repro.obs.flows.FlowLedger` recorded a flow
        joining the network (``links`` = ``[[name, weight], ...]``)."""
        self.emit(EV.FLOW_START, id=fid, nbytes=nbytes, links=links,
                  label=label)

    def flow_rate(self, fid: int, rate: float) -> None:
        """The water-filling allocator granted a flow a new rate."""
        self.emit(EV.FLOW_RATE, id=fid, rate=rate)

    def flow_end(self, fid: int, moved: float) -> None:
        """A flow completed after moving ``moved`` bytes."""
        self.emit(EV.FLOW_END, id=fid, moved=moved)

    def job_submit(self, job: str, tenant: str, n: int, **data) -> None:
        """A sort job entered the service's admission queue."""
        self.emit(EV.JOB_SUBMIT, job=job, tenant=tenant, n=n, **data)

    def job_start(self, job: str, tenant: str, queued_s: float,
                  **data) -> None:
        """A job was admitted (memory + concurrency gates passed) and its
        runner process started."""
        self.emit(EV.JOB_START, job=job, tenant=tenant, queued_s=queued_s,
                  **data)

    def job_end(self, job: str, tenant: str, latency_s: float,
                **data) -> None:
        """A job completed; ``latency_s`` is submit-to-completion."""
        self.emit(EV.JOB_END, job=job, tenant=tenant, latency_s=latency_s,
                  **data)

    def epoch(self, index: int, **data) -> None:
        """The adaptive controller finished a control epoch (per-tenant
        utilization observed, level map possibly re-drawn)."""
        self.emit(EV.EPOCH, index=index, **data)

    # -- engine hook ---------------------------------------------------------

    def _on_step(self, env) -> None:
        """The engine monitor the run session registers: called after
        each processed event; fans out to the sinks' ``on_step``
        hooks."""
        self.steps += 1
        for sink in self._sinks:
            sink.on_step(self)

