"""Timeline tracing and per-component time accounting.

Every simulated operation records a :class:`Span` (category, label, start,
end, bytes/elements, lane).  The paper's figures are all derived from such
spans:

* Fig. 7 / Fig. 8 -- per-component totals (``HtoD``, ``DtoH``, ``GPUSort``,
  ``MCpy``, ``PinnedAlloc``, ``Sync``) and the related-work "end-to-end"
  that omits the host-side categories;
* Fig. 9 / Fig. 10 -- makespans;
* the Gantt-style ASCII timelines in the examples.

Categories follow Table I of the paper.

Beyond the flat span list, a trace records *causal edges*: every span has
a stable ``id`` (its index in recording order) and a ``deps`` tuple of
earlier span ids that had to finish before it could run -- buffer
handoffs (a staging copy feeding the HtoD that reads it), stream order
(ops on one CUDA stream execute in submission order), engine order (two
sorts serialising on a device's kernel engine), synchronisation waits and
host-worker program order.  Because a span can only depend on spans that
already completed, ``deps`` ids are always smaller than the span's own id
and the span graph is acyclic by construction.  :mod:`repro.obs.causal`
turns this DAG into critical-path attribution and what-if predictions.
"""

from __future__ import annotations

import typing as _t
from collections.abc import Mapping
from dataclasses import dataclass, fields

__all__ = ["Span", "Trace", "CAT"]


class CAT:
    """Canonical span category names (Table I of the paper)."""

    HTOD = "HtoD"            #: host-to-device PCIe transfer
    DTOH = "DtoH"            #: device-to-host PCIe transfer
    GPUSORT = "GPUSort"      #: on-GPU sort kernel
    MCPY = "MCpy"            #: host-to-host copy to/from pinned staging
    MERGE = "Merge"          #: final multiway merge on the CPU
    PAIRMERGE = "PairMerge"  #: pipelined pair-wise merge (PIPEMERGE)
    PINNED_ALLOC = "PinnedAlloc"  #: cudaMallocHost cost
    SYNC = "Sync"            #: per-chunk asynchronous-copy synchronisation
    CPUSORT = "CPUSort"      #: CPU-only sort (reference implementation)
    RETRY = "Retry"          #: simulated backoff before retrying a faulted op
    OTHER = "Other"

    #: Components counted by the related-work end-to-end time (Sec. IV-E).
    RELATED_WORK = (HTOD, DTOH, GPUSORT)
    #: Host-side overheads the related work omits.
    OMITTED = (MCPY, PINNED_ALLOC, SYNC)


def _normalize_meta(meta) -> tuple:
    """Normalize span metadata to a sorted tuple of ``(key, value)`` pairs.

    Accepts a mapping, an iterable of pairs, or an already-normalized
    tuple; always returns a canonical (sorted-by-key) tuple so two spans
    with equal metadata compare equal regardless of how the metadata was
    passed.
    """
    if not meta:
        return ()
    if type(meta) is tuple and len(meta) == 1:
        pair = meta[0]
        if type(pair) is tuple and len(pair) == 2 and type(pair[0]) is str:
            return meta   # one pair is already sorted
    items = meta.items() if isinstance(meta, Mapping) else meta
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True, slots=True)
class Span:
    """One timed operation on the simulated timeline."""

    category: str
    label: str
    start: float
    end: float
    lane: str = ""          #: e.g. "gpu0", "stream1", "cpu"
    nbytes: float = 0.0
    elements: int = 0
    meta: tuple = ()        #: sorted tuple of (key, value) pairs
    id: int = -1            #: index in the trace's recording order
    deps: tuple = ()        #: ids of spans this one causally waited for

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def meta_dict(self) -> dict:
        """Metadata as a plain dict."""
        return dict(self.meta)


# Span's slot setters, in field order.  Trace.record builds spans through
# them: the same frozen, slotted Span (same eq, hash and repr) without the
# frozen __init__'s object.__setattr__ call per field.
(_set_category, _set_label, _set_start, _set_end, _set_lane, _set_nbytes,
 _set_elements, _set_meta, _set_id, _set_deps) = [
    getattr(Span, f.name).__set__ for f in fields(Span)]


class Trace:
    """Collects spans and computes aggregates."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Streaming telemetry: an optional
        #: :class:`~repro.obs.events.EventBus` that every recorded span
        #: is published to as a ``span`` event.  ``None`` (the default)
        #: costs a single truthiness check per record; publication is
        #: passive and never alters the trace.
        self.bus = None

    def record(self, category: str, label: str, start: float, end: float,
               lane: str = "", nbytes: float = 0.0, elements: int = 0,
               meta: _t.Mapping | tuple = (),
               deps: _t.Iterable["Span | int | None"] = ()) -> Span:
        """Append a span (``end`` must be >= ``start``).

        ``meta`` may be a mapping or an iterable of pairs; it is stored as
        a sorted tuple of pairs.  ``deps`` lists causal predecessors as
        :class:`Span` objects or span ids (``None`` entries are ignored);
        every dependency must already be recorded in this trace.
        """
        if end < start:
            raise ValueError(f"span ends before it starts: {label!r}")
        sid = len(self.spans)
        dep_ids: list[int] = []
        for d in deps:
            if d is None:
                continue
            i = d.id if isinstance(d, Span) else int(d)
            if not 0 <= i < sid:
                raise ValueError(
                    f"span {label!r} depends on unrecorded span id {i}")
            if i not in dep_ids:
                dep_ids.append(i)
        span = object.__new__(Span)
        _set_category(span, category)
        _set_label(span, label)
        _set_start(span, start)
        _set_end(span, end)
        _set_lane(span, lane)
        _set_nbytes(span, nbytes)
        _set_elements(span, elements)
        _set_meta(span, _normalize_meta(meta))
        _set_id(span, sid)
        _set_deps(span, tuple(sorted(dep_ids)))
        self.spans.append(span)
        if self.bus is not None:
            self.bus.span(span)
        return span

    def span_by_id(self, span_id: int) -> Span:
        """The span with the given id (ids are list indices)."""
        return self.spans[span_id]

    def edges(self) -> _t.Iterator[tuple[int, int]]:
        """All causal edges as ``(parent_id, child_id)`` pairs, in
        deterministic (child, then parent) order."""
        for s in self.spans:
            for d in s.deps:
                yield d, s.id

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable form (spans with ids, deps and meta)."""
        return {"spans": [
            {"id": s.id, "category": s.category, "label": s.label,
             "start": s.start, "end": s.end, "lane": s.lane,
             "nbytes": s.nbytes, "elements": s.elements,
             "meta": [list(kv) for kv in s.meta], "deps": list(s.deps)}
            for s in self.spans]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Trace":
        """Rebuild a trace written by :meth:`to_dict`."""
        trace = cls()
        for rec in doc["spans"]:
            trace.record(rec["category"], rec["label"], rec["start"],
                         rec["end"], lane=rec.get("lane", ""),
                         nbytes=rec.get("nbytes", 0.0),
                         elements=rec.get("elements", 0),
                         meta=[tuple(kv) for kv in rec.get("meta", ())],
                         deps=rec.get("deps", ()))
        return trace

    # -- aggregation ---------------------------------------------------------

    def total(self, category: str) -> float:
        """Sum of span durations in ``category`` (wall-clock overlap NOT
        collapsed -- matches how the paper reports per-component times)."""
        return sum(s.duration for s in self.spans if s.category == category)

    def busy_time(self, categories: _t.Iterable[str] | None = None,
                  lane: str | None = None) -> float:
        """Union length of span intervals (overlaps collapsed), optionally
        restricted to ``categories`` and/or a ``lane``."""
        cats = set(categories) if categories is not None else None
        ivs = sorted(
            (s.start, s.end) for s in self.spans
            if (cats is None or s.category in cats)
            and (lane is None or s.lane == lane))
        total = 0.0
        cur_s: float | None = None
        cur_e = 0.0
        for s, e in ivs:
            if cur_s is None:
                cur_s, cur_e = s, e
            elif s <= cur_e:
                cur_e = max(cur_e, e)
            else:
                total += cur_e - cur_s
                cur_s, cur_e = s, e
        if cur_s is not None:
            total += cur_e - cur_s
        return total

    def breakdown(self) -> dict[str, float]:
        """Per-category total durations, sorted descending."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.category] = out.get(s.category, 0.0) + s.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def count(self, category: str) -> int:
        """Number of spans in ``category``."""
        return sum(1 for s in self.spans if s.category == category)

    def bytes_moved(self, category: str) -> float:
        """Total payload bytes across spans of ``category``."""
        return sum(s.nbytes for s in self.spans if s.category == category)

    def makespan(self) -> float:
        """End of the last span minus start of the first."""
        if not self.spans:
            return 0.0
        return (max(s.end for s in self.spans)
                - min(s.start for s in self.spans))

    def window(self) -> tuple[float, float]:
        """``(earliest start, latest end)`` across all spans
        (``(0.0, 0.0)`` when empty)."""
        if not self.spans:
            return 0.0, 0.0
        return (min(s.start for s in self.spans),
                max(s.end for s in self.spans))

    def categories(self) -> list[str]:
        """Distinct categories in first-seen order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.category, None)
        return list(seen)

    def lanes(self) -> list[str]:
        """Distinct lanes in first-seen order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.lane, None)
        return list(seen)

    def filter(self, category: str | None = None,
               lane: str | None = None) -> list[Span]:
        """Spans matching the given category and/or lane."""
        return [s for s in self.spans
                if (category is None or s.category == category)
                and (lane is None or s.lane == lane)]
