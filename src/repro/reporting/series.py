"""Figure series containers: named (x, y) curves plus derived metrics.

Each benchmark builds one :class:`FigureSeries` per plotted line and uses
the helpers here for the quantities the paper annotates (speedups,
ratios, crossover points).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

__all__ = ["FigureSeries", "crossover", "sparkline"]

#: Eight-level block glyphs used by :func:`sparkline`, lowest first.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


@dataclass
class FigureSeries:
    """One curve of a figure."""

    name: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append a point (x must be non-decreasing)."""
        if self.x and x < self.x[-1]:
            raise ValueError(f"{self.name}: x must be non-decreasing")
        self.x.append(float(x))
        self.y.append(float(y))

    def at(self, x: float) -> float:
        """y at an exact recorded x."""
        try:
            return self.y[self.x.index(float(x))]
        except ValueError:
            raise KeyError(f"{self.name}: no point at x={x}") from None

    def rows(self) -> list[tuple[float, float]]:
        return list(zip(self.x, self.y))


def sparkline(values: _t.Sequence[float],
              marks: _t.Collection[int] = ()) -> str:
    """Render a metric history as a one-line unicode sparkline.

    Values are scaled to the eight :data:`SPARK_BLOCKS` levels between
    the series min and max.  An empty series renders as the empty
    string; a single point (or a zero-range series) renders at the
    middle level.  Indices in ``marks`` (e.g. changepoints) are rendered
    as ``|`` regardless of their value, so a step reads ``▁▁▁|██``.
    """
    if not values:
        return ""
    vals = [float(v) for v in values]
    lo, hi = min(vals), max(vals)
    span = hi - lo
    mid = SPARK_BLOCKS[len(SPARK_BLOCKS) // 2]
    marked = set(marks)
    out = []
    for i, v in enumerate(vals):
        if i in marked:
            out.append("|")
        elif span <= 0:
            out.append(mid)
        else:
            level = int((v - lo) / span * (len(SPARK_BLOCKS) - 1))
            out.append(SPARK_BLOCKS[level])
    return "".join(out)


def crossover(a: FigureSeries, b: FigureSeries) -> float | None:
    """First x where the sign of (a - b) changes; ``None`` if it never
    does.  Linear interpolation between grid points."""
    if a.x != b.x:
        raise ValueError("series have different x grids")
    diffs = [ya - yb for ya, yb in zip(a.y, b.y)]
    for i in range(1, len(diffs)):
        if diffs[i - 1] == 0:
            return a.x[i - 1]
        if diffs[i - 1] * diffs[i] < 0:
            x0, x1 = a.x[i - 1], a.x[i]
            d0, d1 = diffs[i - 1], diffs[i]
            return x0 + (x1 - x0) * (-d0) / (d1 - d0)
    return None
