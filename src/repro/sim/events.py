"""Event primitives for the discrete-event simulation engine.

The engine follows the classic process-interaction style popularised by
SimPy: simulation logic is written as Python generator functions that
``yield`` :class:`Event` objects, and the :class:`~repro.sim.engine.Environment`
resumes them when those events fire.

Only the subset of semantics this project needs is implemented, which keeps
the engine small, fully deterministic and easy to test:

* :class:`Event` -- a one-shot triggerable event carrying a value or an error.
* :class:`Timeout` -- an event that fires after a fixed simulated delay.
* :class:`Condition` -- composite events (:func:`all_of` / :func:`any_of`).
* :class:`Process` -- a running generator; itself an event that fires when
  the generator returns (see :mod:`repro.sim.engine`).

Events are single-shot: succeeding or failing an event twice raises
:class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import typing as _t

from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import Environment

__all__ = ["Event", "Timeout", "Condition", "PENDING"]


class _PendingType:
    """Sentinel for "event has no value yet"."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _PendingType()


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event goes through up to three states:

    1. *pending*  -- created, not yet triggered;
    2. *triggered* -- :meth:`succeed` or :meth:`fail` was called; the event is
       scheduled on the environment's queue;
    3. *processed* -- the environment has popped it and run its callbacks.

    Attributes
    ----------
    callbacks:
        List of ``callable(event)`` invoked when the event is processed.
        ``None`` once processed (appending afterwards is an error).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "_cancelled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self._value: _t.Any = PENDING
        self._ok: bool | None = None
        # A failed event whose exception was delivered to (or inspected by)
        # someone does not crash the simulation; an un-handled failure does.
        self._defused = False
        # Set by Environment.unschedule(): the queue record referencing
        # this event is dead and will be discarded unprocessed.
        self._cancelled = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> _t.Any:
        """The value passed to :meth:`succeed` (or the exception from
        :meth:`fail`).  Only valid once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on this
        event.  If nobody is waiting, the simulation aborts with the
        exception when the event is processed (unless :meth:`defuse` d).
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(
                f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failure as handled so it does not abort the simulation."""
        self._defused = True

    def __repr__(self) -> str:
        state = ("pending" if not self.triggered
                 else "processed" if self.processed else "triggered")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: _t.Any = None) -> None:
        if not delay >= 0:   # also NaN, which would poison the clock
            raise SimulationError(
                f"timeout delay must be >= 0, got {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env.schedule(self, delay=self.delay)

    # Timeouts are triggered at construction; re-triggering is an error and
    # inherited succeed()/fail() already enforce that.


class Condition(Event):
    """Composite event over a fixed set of child events.

    ``evaluate`` receives ``(events, n_processed)`` and returns True once the
    condition holds.  Used through :meth:`Environment.all_of` and
    :meth:`Environment.any_of`.

    The condition's value is a dict mapping each *triggered* child event to
    its value at the time the condition fired.
    """

    __slots__ = ("events", "_evaluate", "_n_processed")

    def __init__(self, env: "Environment",
                 evaluate: _t.Callable[[tuple, int], bool],
                 events: _t.Iterable[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        self._evaluate = evaluate
        self._n_processed = 0

        for ev in self.events:
            if ev.env is not env:
                raise SimulationError(
                    "all events of a condition must share one environment")

        if not self.events:
            self.succeed({})
            return

        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)  # type: ignore[union-attr]

    @staticmethod
    def all_events(events: tuple, count: int) -> bool:
        """Evaluate function: fire once every child has been processed."""
        return len(events) == count

    @staticmethod
    def any_event(events: tuple, count: int) -> bool:
        """Evaluate function: fire as soon as one child has been processed."""
        return count > 0

    def _collect_values(self) -> dict:
        # Only *processed* children count as outcomes: a pending Timeout
        # is "triggered" from birth but has not happened yet.
        return {ev: ev._value for ev in self.events if ev.processed}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._n_processed += 1
        if not event._ok:
            # Propagate the first child failure immediately.
            event.defuse()
            self.fail(_t.cast(BaseException, event._value))
        elif self._evaluate(self.events, self._n_processed):
            self.succeed(self._collect_values())
