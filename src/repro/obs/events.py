"""The streaming telemetry bus: typed publish/subscribe events emitted
*while* a heterogeneous sort runs.

Everything built by the earlier observability layers (metrics, causal
tracing, conformance) is post-hoc -- nothing is visible until the run
finishes.  The :class:`EventBus` closes that blind spot: emission points
inside the simulator (trace spans, resource queues, counter samples,
runner phases, the chaos layer, the memory and flow ledgers, the
service) publish :class:`TelemetryEvent` s as they happen, each through
the one call ``bus.emit(EV.X, field=...)``.  :class:`EV` names the
kinds; :data:`_EVENT_FIELDS` is the whole event contract, per kind the
``data`` fields every event carries with their types, and
:func:`repro.obs.sinks.validate_events` checks a stream against it.

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

import numbers
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


_REAL, _INT = numbers.Real, numbers.Integral
_MEM_FIELDS = {"pool": str, "name": str, "nbytes": _REAL, "balance": _REAL}

#: The event contract: kind -> {field: type} every event of that kind
#: carries in its ``data``; the keys are the known kinds.  A trailing
#: ``?`` marks a field that may be absent or null but is typed when
#: present, because a reader computes with it.  The number types are
#: the ABCs, so numpy scalars in an in-memory stream pass as they do
#: once written.
_EVENT_FIELDS: dict[str, dict[str, type]] = {
    EV.RUN_START: {"n?": _REAL, "n_batches?": _REAL},
    EV.RUN_END: {"elapsed_s?": _REAL},
    EV.SPAN: {"id": _INT, "category": str, "label": str, "start": _REAL,
              "end": _REAL, "lane": str, "nbytes": _REAL,
              "elements": _INT, "meta": list, "deps": list},
    EV.QUEUE: {"name": str, "depth": _INT},
    EV.COUNTER: {"name": str, "value": _REAL},
    EV.PHASE: {"name": str},
    EV.WARNING: {"code": str, "message": str},
    EV.FAULT: {"kind": str},
    EV.RETRY: {"what": str, "attempt": _INT},
    EV.DEGRADE: {"reason": str},
    EV.MEM_ALLOC: _MEM_FIELDS, EV.MEM_FREE: _MEM_FIELDS,
    EV.MEM_WATERMARK: {"pool": str, "peak_bytes": _REAL,
                       "capacity_bytes?": _REAL},
    EV.FLOW_START: {"id": _INT, "nbytes": _REAL, "links": list},
    EV.FLOW_RATE: {"id": _INT, "rate": _REAL},
    EV.FLOW_END: {"id": _INT},
    EV.JOB_SUBMIT: {"job": str, "tenant": str, "n": _INT},
    EV.JOB_START: {"job": str, "tenant": str, "queued_s": _REAL},
    EV.JOB_END: {"job": str, "tenant": str, "latency_s": _REAL},
    EV.EPOCH: {"index": _INT},
}


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

    # -- engine hook ---------------------------------------------------------

    def _on_step(self, env) -> None:
        """The engine monitor the run session registers: called after
        each processed event; fans out to the sinks' ``on_step``
        hooks."""
        self.steps += 1
        for sink in self._sinks:
            sink.on_step(self)

