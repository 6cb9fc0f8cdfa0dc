"""The discrete-event simulation core: :class:`Environment` and
:class:`Process`.

Simulation logic is written as generator functions ("processes") that yield
:class:`~repro.sim.events.Event` objects.  The environment keeps triggered
events ordered by ``(time, priority, sequence)`` and processes them in that
order, resuming any process waiting on each event.  The ``sequence``
tiebreaker makes the whole simulation *deterministic*: two runs of the same
program produce identical timelines.

Future events live in one binary heap of ``(when, priority, seq, event)``
records.  Events scheduled at the *current* instant (process inits,
resource grants, flow completions -- the dominant class) bypass the heap
and live in two plain FIFO deques (URGENT and NORMAL), which is correct
because a record appended at time ``t`` always carries a larger sequence
number than anything already queued at ``t``.  The pop order is
therefore exactly the heap's ``(when, priority, seq)`` order -- pinned by
the fast-path equivalence battery
(``tests/sim/test_engine_equivalence.py``) and the tie-break property
test.

Example
-------
>>> from repro.sim.engine import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import time as _time
import typing as _t
from collections import deque

from repro.errors import SimulationError
from repro.sim.events import Condition, Event, Timeout

__all__ = ["Environment", "Process", "URGENT", "NORMAL"]

#: Scheduling priorities.  URGENT events at a given time are processed before
#: NORMAL events at the same time (used for immediately-resumable yields).
URGENT = 0
NORMAL = 1

_INF = float("inf")


class Process(Event):
    """A running simulation process.

    Wraps a generator; each value the generator yields must be an
    :class:`Event`.  The process resumes when that event is processed,
    receiving the event's value as the result of the ``yield`` expression
    (or having the event's exception raised at the yield point if the event
    failed).

    A ``Process`` is itself an event: it succeeds with the generator's return
    value, or fails with any exception that escapes the generator.

    Every process carries an inheritable :attr:`tag`: opaque metadata that
    defaults to the spawning process's tag (``None`` at the top level).
    Subsystems that need to know *on whose behalf* a process is running --
    the multi-tenant service stamps a QoS tag so that flows started deep
    inside machine primitives inherit the tenant's priority and share --
    read it via :attr:`Environment.active_process`.  The engine itself
    never interprets tags.
    """

    __slots__ = ("generator", "_send", "_throw", "_target", "name", "tag")

    def __init__(self, env: "Environment",
                 generator: _t.Generator[Event, _t.Any, _t.Any],
                 name: str | None = None) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process() needs a generator, got {generator!r}")
        super().__init__(env)
        self.generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        # Inherit the spawner's tag: env.process() is always called
        # synchronously from within the spawning process's step (or from
        # outside any process, where _active is None).
        active = env._active
        self.tag = active.tag if active is not None else None
        # Kick the process off via an immediately-scheduled init event.
        init = Event(env)
        init.callbacks.append(self._resume)  # type: ignore[union-attr]
        init._ok = True
        init._value = None
        env.schedule(init, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        send = self._send
        ok = event._ok
        payload = event._value
        if not ok:
            # The exception is delivered into the generator, therefore it
            # counts as handled.
            event._defused = True
        # Everything the generator does until its next yield runs on this
        # process's behalf (callbacks never nest: succeed()/fail() defer
        # through the queue), so flows/processes it creates can read the
        # tag via env._active.
        env._active = self
        while True:
            try:
                if ok:
                    target = send(payload)
                else:
                    target = self._throw(
                        _t.cast(BaseException, payload))
            except StopIteration as exc:
                env._active = None
                self.succeed(exc.value)
                return
            except BaseException as exc:  # noqa: BLE001 - escalate via event
                env._active = None
                self.fail(exc)
                return

            if type(target) is Timeout or isinstance(target, Event):
                if target.env is not env:
                    self.fail(SimulationError(
                        "yielded event belongs to a different environment"))
                    return
                if target.callbacks is None:
                    # Already processed: loop and advance again without a
                    # queue trip.
                    ok = target._ok
                    payload = target._value
                    if not ok:
                        target._defused = True
                    continue
                target.callbacks.append(self._resume)
                self._target = target
                env._active = None
                return
            # Non-event yield: throw into the generator so it can clean
            # up (or even catch and carry on).
            ok = False
            payload = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}")

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"


_profile_mod = None   # lazy import of repro.obs.profile (cycle-safe)


class Environment:
    """Coordinates events, time, and processes of one simulation run."""

    __slots__ = ("_now", "_future", "_now_urgent", "_now_normal", "_seq",
                 "_monitors", "bus", "processed_events", "_active")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: The process currently executing a step, or None between steps.
        #: Maintained by Process._resume; read by tag-inheriting
        #: subsystems (process spawning, flow QoS stamping).
        self._active: Process | None = None
        #: Binary heap of future ``(when, priority, seq, event)`` records.
        self._future: list[tuple[float, int, int, Event]] = []
        # Same-instant fast path: events scheduled at the current time
        # skip the heap.  Appended records carry strictly increasing
        # seq, so each deque is FIFO-ordered by construction.
        self._now_urgent: deque = deque()
        self._now_normal: deque = deque()
        self._seq = 0
        #: Total events processed so far (the throughput gate's
        #: denominator; one increment per processed event).
        self.processed_events = 0
        self._monitors: list[_t.Callable[["Environment"], None]] = []
        #: Streaming telemetry: an optional
        #: :class:`~repro.obs.events.EventBus` notified after every
        #: processed event (its sinks' ``on_step`` hooks drive watchdog
        #: stall detection and display refresh).  ``None`` (the default)
        #: costs one truthiness check per step; the bus is an observer
        #: and must never schedule events.
        self.bus = None

    # -- observability -------------------------------------------------------

    def add_monitor(self, callback: _t.Callable[["Environment"], None]
                    ) -> None:
        """Register an observer invoked after every processed event.

        Monitors are passive: they may read simulation state (``now``,
        resource occupancy, ...) and record it, but must not schedule
        events or otherwise perturb the run.  With no monitors registered
        the per-step cost is a single truthiness check.
        """
        self._monitors.append(callback)

    def remove_monitor(self, callback: _t.Callable[["Environment"], None]
                       ) -> None:
        """Unregister a monitor added with :meth:`add_monitor`."""
        self._monitors.remove(callback)

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process whose generator is currently executing, or ``None``
        when control is not inside any process step (e.g. at module level
        or inside a plain event callback)."""
        return self._active

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: _t.Generator[Event, _t.Any, _t.Any],
                name: str | None = None) -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Iterable[Event]) -> Condition:
        """An event firing when *all* of ``events`` have fired."""
        return Condition(self, Condition.all_events, events)

    def any_of(self, events: _t.Iterable[Event]) -> Condition:
        """An event firing when *any* of ``events`` has fired."""
        return Condition(self, Condition.any_event, events)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` seconds from now."""
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            (self._now_urgent if priority == URGENT
             else self._now_normal).append((self._now, priority, seq, event))
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past ({delay!r})")
        when = self._now + delay
        if when == self._now:
            # A positive delay that underflows to "now" (ulp-scale at
            # large t) must still respect seq order with other
            # now-records -- append, do not push.
            (self._now_urgent if priority == URGENT
             else self._now_normal).append((when, priority, seq, event))
            return
        heapq.heappush(self._future, (when, priority, seq, event))

    def unschedule(self, event: Event) -> None:
        """Lazily cancel a scheduled event (it is skipped when popped).

        Used by the bandwidth links when a completion estimate is
        invalidated by a new flow.  The event object must not be reused.
        """
        event._cancelled = True
        event.callbacks = None

    def _head(self) -> tuple[float, int, int, Event] | None:
        """The next live record across the now-deques and the future
        queue, without removing it (cancelled records are discarded).

        All live deque records sit at the current instant (the clock only
        advances once both deques drain), so the urgent head -- when
        present -- beats the normal head by priority; the future head is
        compared by full ``(when, priority, seq)`` tuple to cover events
        scheduled at this same instant from an earlier one.
        """
        nu, nn = self._now_urgent, self._now_normal
        best = None
        while nu:
            rec = nu[0]
            if rec[3]._cancelled:
                nu.popleft()
                continue
            best = rec
            break
        if best is None:
            while nn:
                rec = nn[0]
                if rec[3]._cancelled:
                    nn.popleft()
                    continue
                best = rec
                break
        fut = self._future
        while fut and fut[0][3]._cancelled:
            heapq.heappop(fut)
        if fut and (best is None or fut[0] < best):
            return fut[0]
        return best

    def _pop(self) -> tuple[float, int, int, Event]:
        """Remove and return the next live record."""
        rec = self._head()
        if rec is None:
            raise SimulationError("step() on an empty queue")
        nu, nn = self._now_urgent, self._now_normal
        if nu and nu[0] is rec:
            nu.popleft()
        elif nn and nn[0] is rec:
            nn.popleft()
        else:
            heapq.heappop(self._future)
        return rec

    # -- execution ----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        rec = self._head()
        return rec[0] if rec is not None else _INF

    def step(self) -> None:
        """Process the next event on the queue."""
        when, _, _, event = self._pop()
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when
        callbacks = event.callbacks or []
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # An un-handled failure: abort the simulation loudly.
            raise _t.cast(BaseException, event._value)
        self.processed_events += 1
        if self._monitors:
            for monitor in self._monitors:
                monitor(self)
        if self.bus is not None:
            self.bus._on_step(self)

    def run(self, until: float | Event | None = None) -> _t.Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` -- run until the event queue is exhausted.
            * a number -- run until simulated time reaches it.
            * an :class:`Event` -- run until that event is processed and
              return its value (raising its exception if it failed).

        When :mod:`repro.obs.profile` profiling is enabled, each call
        accumulates wall-clock seconds and processed-event counts under
        the ``sim.engine.run`` kernel (``elements_per_s`` is then the
        engine's events/sec -- the simulator-throughput gate's metric).
        """
        global _profile_mod
        if _profile_mod is None:
            from repro.obs import profile as _profile_mod  # noqa: PLW0603
        profiling = _profile_mod.profiling_enabled()
        if profiling:
            t0 = _time.perf_counter()
            events0 = self.processed_events
        try:
            return self._run(until)
        finally:
            if profiling:
                _profile_mod._record(
                    "sim.engine.run", _time.perf_counter() - t0,
                    self.processed_events - events0)

    def _run(self, until: float | Event | None) -> _t.Any:
        stop_event: Event | None = None
        stop_time = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError("run(until) lies in the past")

        # The hot loop: pop / advance clock / fire callbacks, with the
        # stop checks folded in.  Mirrors step() -- kept inline because
        # one Python call per event is measurable at fig11 scale.
        monitors = self._monitors
        while True:
            if stop_event is not None and stop_event.callbacks is None:
                break
            rec = self._head()
            if rec is None:
                break
            when = rec[0]
            if when > stop_time:
                self._now = stop_time
                return None
            event = rec[3]
            nu, nn = self._now_urgent, self._now_normal
            if nu and nu[0] is rec:
                nu.popleft()
            elif nn and nn[0] is rec:
                nn.popleft()
            else:
                heapq.heappop(self._future)
            self._now = when
            callbacks = event.callbacks or ()
            event.callbacks = None
            for cb in callbacks:
                cb(event)
            if not event._ok and not event._defused:
                raise _t.cast(BaseException, event._value)
            self.processed_events += 1
            if monitors:
                for monitor in monitors:
                    monitor(self)
            if self.bus is not None:
                self.bus._on_step(self)

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    f"run() ran out of events before {stop_event!r} fired")
            if not stop_event._ok:
                stop_event.defuse()
                raise _t.cast(BaseException, stop_event._value)
            return stop_event._value
        if until is not None and stop_time != _INF:
            self._now = stop_time
        return None
