"""Live counters and gauges sampled while a simulation runs.

A :class:`MetricsRecorder` holds named :class:`CounterSeries`; probes
inside the simulation (resource queues, pinned-memory accounting, the
PCIe copy paths, the approach runners) push ``(time, value)`` samples as
state changes.  Recording never schedules events or consumes simulated
time, so an attached recorder cannot perturb the timeline -- the
determinism tests pin this.

Series are exported as Perfetto/Chrome counter tracks by
:func:`repro.reporting.chrometrace.to_chrome_trace` and summarised into
``SortResult.metrics["counters"]``.
"""

from __future__ import annotations

import math
import typing as _t
from array import array

from repro.obs.events import EV

__all__ = ["CounterSeries", "MetricsRecorder"]

_INF = math.inf


class CounterSeries:
    """One named time series of ``(time, value)`` samples, stored as two
    float64 arrays (a paper-scale run keeps ~10^5 samples)."""

    __slots__ = ("name", "unit", "times", "values")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.times = array("d")
        self.values = array("d")

    def __len__(self) -> int:
        return len(self.times)

    def add(self, t: float, value: float) -> None:
        """Append a sample; repeated samples at one instant keep the
        latest value (state changes within a zero-width event cascade).
        ``t`` must be finite and no earlier than the last sample."""
        if not -_INF < t < _INF:
            raise ValueError(
                f"counter {self.name!r}: non-finite sample time {t!r}")
        times = self.times
        if times:
            last = times[-1]
            if t < last:
                raise ValueError(
                    f"counter {self.name!r}: sample at {t} before {last}")
            if t == last:
                self.values[-1] = value
                return
        self.values.append(value)   # first: a bad value changes nothing
        times.append(t)

    @property
    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    def time_weighted_mean(self, t_end: float | None = None) -> float:
        """Average value weighted by how long each value was held.

        The last value is held until ``t_end`` (default: the last sample
        time, i.e. zero weight for the final sample).
        """
        if not self.times:
            return 0.0
        t_end = self.times[-1] if t_end is None else t_end
        total = 0.0
        span = t_end - self.times[0]
        if span <= 0:
            return self.values[-1]
        for i, v in enumerate(self.values):
            nxt = self.times[i + 1] if i + 1 < len(self.times) else t_end
            total += v * max(0.0, nxt - self.times[i])
        return total / span

    def samples(self) -> _t.Iterator[tuple[float, float]]:
        return zip(self.times, self.values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CounterSeries {self.name!r} n={len(self)} "
                f"last={self.last:g}>")


class MetricsRecorder:
    """Registry of counter series, bound to a simulation clock.

    ``clock`` is any zero-argument callable returning the current
    simulated time (normally ``lambda: env.now``).
    """

    def __init__(self, clock: _t.Callable[[], float] | None = None) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.series: dict[str, CounterSeries] = {}
        self._totals: dict[str, float] = {}
        #: Streaming telemetry: optional
        #: :class:`~repro.obs.events.EventBus` that every recorded
        #: sample is also published to as a ``counter`` event (so the
        #: JSONL event log can reconstruct the series exactly).
        self.bus = None

    def series_for(self, name: str, unit: str = "") -> CounterSeries:
        """The series called ``name``, created on first use."""
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = CounterSeries(name, unit=unit)
        return s

    # -- recording -----------------------------------------------------------

    def sample(self, name: str, value: float, unit: str = "") -> None:
        """Record a gauge sample at the current simulated time."""
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = CounterSeries(name, unit=unit)
        value = float(value)
        s.add(self.clock(), value)
        if self.bus is not None:
            self.bus.emit(EV.COUNTER, name=name, value=value, unit=unit)

    def gauge(self, name: str, unit: str = ""
              ) -> _t.Callable[[float], None]:
        """A sampler for ``name``: ``gauge(value)`` records exactly what
        ``sample(name, value, unit)`` would.  The series is looked up
        once, on the first sample, so series keep first-sample order."""
        clock = self.clock
        series = None

        def gauge(value: float) -> None:
            nonlocal series
            if series is None:
                series = self.series_for(name, unit=unit)
            value = float(value)
            series.add(clock(), value)
            if self.bus is not None:
                self.bus.emit(EV.COUNTER, name=name, value=value,
                              unit=unit)
        return gauge

    def incr(self, name: str, delta: float = 1.0, unit: str = "") -> None:
        """Advance a monotonically accumulating counter by ``delta``."""
        total = self._totals.get(name, 0.0) + delta
        self._totals[name] = total
        self.series_for(name, unit=unit).add(self.clock(), total)
        if self.bus is not None:
            self.bus.emit(EV.COUNTER, name=name, value=total, unit=unit)

    def probe(self, name: str, getter: _t.Callable[[_t.Any], float]
              ) -> _t.Callable[[_t.Any], None]:
        """A callback sampling ``getter(obj)`` into ``name`` -- the shape
        :class:`~repro.sim.resources.Resource` probes expect."""
        gauge = self.gauge(name)

        def _cb(obj) -> None:
            gauge(getter(obj))
        return _cb

    # -- export --------------------------------------------------------------

    def summary(self, t_end: float | None = None) -> dict[str, dict]:
        """Per-series scalar summary for ``SortResult.metrics``."""
        out: dict[str, dict] = {}
        for name in sorted(self.series):
            s = self.series[name]
            out[name] = {
                "samples": len(s),
                "last": s.last,
                "max": s.max(),
                "mean": s.time_weighted_mean(t_end),
            }
        return out
