"""Wall-clock profiling of the *real* numpy kernels.

The simulation's timeline is analytic; the functional layer nevertheless
executes genuine numpy kernels (device sort, pair and multiway merges,
sample sort) whose real cost is worth measuring when optimising them.
:func:`profiled` wraps a kernel so that, **only while profiling is
enabled**, each call's ``time.perf_counter`` duration is accumulated into
a per-kernel :class:`KernelStats`.  ``perfbench/layers.py`` reads these
stats for its ``kernels.*`` metrics.

Disabled (the default) the wrapper is a single falsy branch -- no timer
reads, no allocation -- and enabling it can never change the kernel's
return value, the sorted output, or the simulated timeline (wall-clock
measurements never touch the :class:`~repro.sim.engine.Environment`).
"""

from __future__ import annotations

import dataclasses
import functools
import time
import typing as _t
from dataclasses import dataclass

__all__ = [
    "KernelStats", "profiled", "enable_profiling", "disable_profiling",
    "profiling_enabled", "profiling_stats", "reset_profiling", "snapshot",
]

_ENABLED = False
_STATS: dict[str, "KernelStats"] = {}


@dataclass
class KernelStats:
    """Accumulated wall-clock statistics for one kernel name."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    elements: int = 0

    def record(self, seconds: float, elements: int = 0) -> None:
        self.calls += 1
        self.total_s += seconds
        self.elements += elements

    @property
    def elements_per_s(self) -> float:
        return self.elements / self.total_s if self.total_s > 0 else 0.0


def enable_profiling() -> None:
    """Turn kernel wall-clocking on (stats accumulate until reset)."""
    global _ENABLED
    _ENABLED = True


def disable_profiling() -> None:
    """Turn kernel wall-clocking off (stats are kept, not cleared)."""
    global _ENABLED
    _ENABLED = False


def profiling_enabled() -> bool:
    return _ENABLED


def reset_profiling() -> None:
    """Drop all accumulated statistics."""
    _STATS.clear()


def profiling_stats() -> dict[str, KernelStats]:
    """Accumulated stats by kernel name (live view; see :func:`snapshot`
    for a frozen copy)."""
    return _STATS


def snapshot() -> dict[str, KernelStats]:
    """A frozen, name-sorted copy of the accumulated stats: later kernel
    calls (or :func:`reset_profiling`) never mutate a snapshot."""
    return {name: dataclasses.replace(_STATS[name])
            for name in sorted(_STATS)}


def _record(name: str, seconds: float, elements: int) -> None:
    stats = _STATS.get(name)
    if stats is None:
        stats = _STATS[name] = KernelStats(name)
    stats.record(seconds, elements)


def profiled(name: str,
             size_of: _t.Callable[..., int] | None = None):
    """Decorator: wall-clock calls to a kernel under ``name``.

    ``size_of(*args, **kwargs)`` may report the element count processed
    (for throughput stats).  When profiling is disabled the only cost is
    one module-global truthiness check per call.
    """
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _ENABLED:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                n = 0
                if size_of is not None:
                    try:
                        n = int(size_of(*args, **kwargs))
                    except Exception:  # noqa: BLE001 - stats must not raise
                        n = 0
                _record(name, elapsed, n)
        return wrapper
    return deco
