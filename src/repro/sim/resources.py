"""Shared-resource primitives for simulation processes.

* :class:`Resource` -- a counting semaphore with strict FIFO granting.  Used
  for CPU core pools (a k-thread task acquires k units) and GPU engines
  (kernel engine, per-direction copy engines have capacity 1).
* :class:`Store` -- an unbounded FIFO item queue with blocking ``get``.
  Used to hand sorted batches from the GPU pipeline to the CPU merge
  scheduler.

Granting is strictly FIFO (no bypass): a large request at the head of the
queue blocks later, smaller requests.  That mirrors a non-work-stealing
OpenMP-style scheduler and keeps simulations deterministic.
"""

from __future__ import annotations

import operator
import typing as _t
from collections import deque

from repro.errors import SimulationError
from repro.sim.engine import Environment
from repro.sim.events import Event

__all__ = ["Resource", "Store"]


class Resource:
    """A counting semaphore with FIFO queueing.

    >>> env = Environment()
    >>> cores = Resource(env, capacity=4)
    >>> def task(env, cores):
    ...     yield cores.request(2)
    ...     yield env.timeout(1.0)
    ...     cores.release(2)
    """

    __slots__ = ("env", "capacity", "name", "_available", "_waiting",
                 "probe", "last_release_span")

    def __init__(self, env: Environment, capacity: int,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.name = name
        self._available = int(capacity)
        self._waiting: deque[tuple[Event, int]] = deque()
        #: The one observer hook: called as ``probe(self)`` after every
        #: state change (request queued, units granted, units released).
        #: The run session installs it (counter samples, then a
        #: ``queue`` event).  Must not schedule events; ``None`` costs
        #: nothing.
        self.probe: _t.Callable[["Resource"], None] | None = None
        #: Causal tracing: the trace span id of the operation
        #: whose :meth:`release` most recently returned units.  A request
        #: that had to *wait* was unblocked by that release, so the waiter
        #: records a causal edge from this span to its own (see
        #: :mod:`repro.sim.trace`).  Updated by ``release(units, span=...)``.
        self.last_release_span: _t.Any = None

    # -- accounting ----------------------------------------------------------

    @property
    def available(self) -> int:
        """Units currently free."""
        return self._available

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self.capacity - self._available

    @property
    def queue_length(self) -> int:
        """Number of requests waiting."""
        return len(self._waiting)

    # -- acquire / release ---------------------------------------------------

    def _units(self, units: int) -> int:
        """``units`` as an exact integer; fractional units are refused."""
        try:
            return operator.index(units)
        except TypeError:
            raise SimulationError(
                f"{self.name!r}: units must be an integer, got {units!r}"
            ) from None

    def request(self, units: int = 1) -> Event:
        """Return an event that fires once ``units`` units are granted."""
        if type(units) is not int:
            units = self._units(units)
        if units < 1 or units > self.capacity:
            raise SimulationError(
                f"cannot request {units} units of {self.name!r} "
                f"(capacity {self.capacity})")
        ev = Event(self.env)
        self._waiting.append((ev, units))
        self._grant()
        if self.probe is not None:
            self.probe(self)
        return ev

    def release(self, units: int = 1, span: _t.Any = None) -> None:
        """Return ``units`` units to the pool and wake waiters.

        ``span`` optionally names the trace span id of the operation that
        held the units; it is exposed as :attr:`last_release_span` so a
        request that was blocked can attribute its wait causally.
        """
        if type(units) is not int:
            units = self._units(units)
        if units < 1:
            raise SimulationError(f"cannot release {units} units")
        if self._available + units > self.capacity:
            raise SimulationError(
                f"{self.name!r}: released more units than acquired")
        if span is not None:
            self.last_release_span = span
        self._available += units
        self._grant()
        if self.probe is not None:
            self.probe(self)

    def fail_waiters(self, exc: BaseException) -> None:
        """Fail every *queued* request with ``exc``.

        Used by fault injection when a device is lost: processes waiting
        on one of its engines must receive the failure instead of
        blocking forever.  Units already granted are unaffected (their
        holders observe the failure through other channels).
        """
        if not self._waiting:
            return
        waiting, self._waiting = list(self._waiting), deque()
        for ev, _units in waiting:
            ev.fail(exc)
        if self.probe is not None:
            self.probe(self)

    def _grant(self) -> None:
        while self._waiting:
            ev, units = self._waiting[0]
            if units > self._available:
                return  # strict FIFO: head of line blocks
            self._waiting.popleft()
            self._available -= units
            ev.succeed(units)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Resource {self.name!r} {self.in_use}/{self.capacity} "
                f"in use, {self.queue_length} waiting>")


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the next
    item (items are matched to getters in FIFO order).
    """

    __slots__ = ("env", "name", "_items", "_getters", "probe")

    def __init__(self, env: Environment, name: str = "store") -> None:
        self.env = env
        self.name = name
        self._items: deque[_t.Any] = deque()
        self._getters: deque[Event] = deque()
        #: The one observer hook: called as ``probe(self)`` after every
        #: put or get (installed by the run session, like
        #: :attr:`Resource.probe`).  Must not schedule events.
        self.probe: _t.Callable[["Store"], None] | None = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def getters_waiting(self) -> int:
        """Number of blocked ``get`` calls."""
        return len(self._getters)

    def put(self, item: _t.Any) -> None:
        """Add ``item``; wakes the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        if self.probe is not None:
            self.probe(self)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        if self.probe is not None:
            self.probe(self)
        return ev

    def try_get(self) -> tuple[bool, _t.Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            if self.probe is not None:
                self.probe(self)
            return True, item
        return False, None
