"""Timeline tracing and per-component time accounting.

Every simulated operation records a span (category, label, start, end,
bytes/elements, lane).  The paper's figures are all derived from spans:

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

Storage is columnar: a paper-scale run records ~60k spans, so the trace
keeps typed arrays (times, byte and element counts), small-int columns
for the few distinct categories, labels, lanes and metadata tuples, and
one flat deps array with per-span offsets.  :meth:`Trace.record` returns
the new span's id -- the handle callers pass on as a causal dependency --
and :attr:`Trace.spans` is a read-only sequence view that builds the
:class:`Span` objects on first read.
"""

from __future__ import annotations

import math
import operator
import typing as _t
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields

from repro.obs.events import EV

__all__ = ["Span", "Trace", "CAT", "span_index"]

_INF = math.inf


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


# Span's slot setters, in field order.  The trace builds spans through
# them: the same frozen, slotted Span (same eq, hash and repr) without the
# frozen __init__'s object.__setattr__ call per field.
(_set_category, _set_label, _set_start, _set_end, _set_lane, _set_nbytes,
 _set_elements, _set_meta, _set_id, _set_deps) = [
    getattr(Span, f.name).__set__ for f in fields(Span)]


def span_index(ref) -> int:
    """The span id ``ref`` names: an ``int``, a numpy integer or a
    :class:`Span`.  A ``bool`` or a non-integral value (``1.7``, ``2.0``,
    a string) raises :class:`TypeError` instead of being coerced."""
    if isinstance(ref, Span):
        return ref.id
    if isinstance(ref, bool):
        raise TypeError(f"a span id must be an integer, got {ref!r}")
    try:
        return operator.index(ref)
    except TypeError:
        raise TypeError(
            f"a span id must be an integer, got {ref!r}") from None


class SpanView(Sequence):
    """The read-only :class:`Span` sequence of a :class:`Trace`.

    ``len()`` reads the column length and builds nothing.  Indexing,
    slicing, iteration and ``==`` build the spans recorded so far once
    and cache them on the trace, so ``trace.span_by_id(i) is
    trace.spans[i]`` holds.  The view keeps no state of its own.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._start)

    def __getitem__(self, index):
        return self._trace._materialize()[index]

    def __iter__(self) -> _t.Iterator[Span]:
        return iter(self._trace._materialize())

    def __reversed__(self) -> _t.Iterator[Span]:
        return reversed(self._trace._materialize())

    def __eq__(self, other) -> bool:
        if isinstance(other, SpanView):
            other = other._trace._materialize()
        if isinstance(other, list):
            return self._trace._materialize() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._trace._materialize())


class Trace:
    """Collects spans as typed columns and computes aggregates."""

    def __init__(self) -> None:
        # One entry per span.
        self._start = array("d")
        self._end = array("d")
        #: Each span's kind: an index into ``_kinds``.
        self._kind = array("I")
        #: Distinct ``(category, label, lane, nbytes, elements, meta,
        #: type(nbytes))`` tuples in first-seen order.  A paper-scale run
        #: has 30 for 60,024 spans, so per-span strings, byte counts and
        #: metadata tuples are stored once.
        self._kinds: list[tuple] = []
        #: Kind ids by value.  Only kinds whose values are
        #: interchangeable with any equal value are shared: an int
        #: ``elements``, an int or float ``nbytes`` (never NaN or -0.0)
        #: and ``str``/``int`` metadata values.  Any other span gets a
        #: kind of its own, so ``1`` and ``1.0`` are never merged.
        self._kind_ids: dict[tuple, int] = {}
        # Causal deps: span i's deps are _deps[_dep_off[i]:_dep_off[i+1]].
        self._deps = array("I")
        self._dep_off = array("I", [0])
        #: ``(start, end)`` of the spans whose times are not floats (an
        #: int, say), by id; their column entries are float copies.
        self._exact_times: dict[int, tuple] = {}
        #: Spans built by the first read of :attr:`spans`, by id.
        self._built: list[Span] = []
        #: Streaming telemetry: an optional
        #: :class:`~repro.obs.events.EventBus` that every recorded span
        #: is published to as a ``span`` event.  ``None`` (the default)
        #: costs a single truthiness check per record; publication is
        #: passive and never alters the trace.
        self.bus = None

    def record(self, category: str, label: str, start: float, end: float,
               lane: str = "", nbytes: float = 0.0, elements: int = 0,
               meta: _t.Mapping | tuple = (),
               deps: _t.Iterable["Span | int | None"] = ()) -> int:
        """Append a span and return its id.

        ``start`` and ``end`` must be finite with ``end >= start``;
        ``category``, ``label`` and ``lane`` must be strings.  ``meta``
        may be a mapping or an iterable of pairs; it is stored as a
        sorted tuple of pairs.  ``deps`` lists causal predecessors as
        span ids or :class:`Span` objects (``None`` entries are
        ignored); every dependency must already be recorded in this
        trace.  Everything is validated before anything is stored.
        """
        if not -_INF < start <= end < _INF:
            if math.isfinite(start) and math.isfinite(end):
                raise ValueError(f"span ends before it starts: {label!r}")
            raise ValueError(
                f"span {label!r} has a non-finite time: "
                f"start={start!r}, end={end!r}")
        exact = None
        if type(start) is not float or type(end) is not float:
            # Kept exactly in a side table; the columns hold float copies.
            exact = (start, end)
            try:
                start, end = float(start), float(end)
            except OverflowError:
                raise ValueError(
                    f"span {label!r} has a time no float can hold") from None
        sid = len(self._start)
        dep_ids: list[int] = []
        for d in deps:
            if d is None:
                continue
            i = d if type(d) is int else span_index(d)
            if not 0 <= i < sid:
                raise ValueError(
                    f"span {label!r} depends on unrecorded span id {i}")
            if i not in dep_ids:
                dep_ids.append(i)
        if len(dep_ids) > 1:
            dep_ids.sort()
        # A kind is shared only when every equal value prints the same:
        # never 1 vs 1.0 vs True, 0.0 vs -0.0, or a NaN.  The fast path
        # looks a kind up by the caller's own values when they are
        # already canonical: an int ``elements``, an int or a float
        # ``nbytes`` other than -0.0 (a NaN never equals a stored key)
        # and no meta or one ``(str, str | int)`` pair.
        nbytes_type = type(nbytes)
        k = None
        if type(elements) is int and (
                nbytes_type is int or nbytes_type is float and (
                    nbytes or math.copysign(1.0, nbytes) > 0.0)):
            if not meta:
                k = self._kind_ids.get((category, label, lane, nbytes,
                                        elements, (), nbytes_type))
            elif type(meta) is tuple and len(meta) == 1:
                pair = meta[0]
                if (type(pair) is tuple and len(pair) == 2
                        and type(pair[0]) is str
                        and (type(pair[1]) is int or type(pair[1]) is str)):
                    k = self._kind_ids.get((category, label, lane, nbytes,
                                            elements, meta, nbytes_type))
        if k is None:
            k = self._add_kind(category, label, lane, nbytes, elements, meta)
        self._kind.append(k)
        if dep_ids:
            self._deps.extend(dep_ids)
        self._dep_off.append(len(self._deps))
        if exact is not None:
            self._exact_times[sid] = exact
        self._start.append(start)
        self._end.append(end)
        if self.bus is not None:
            self.bus.emit(EV.SPAN, **self._span_dict(sid))
        return sid

    def _add_kind(self, category, label, lane, nbytes, elements,
                  meta) -> int:
        """The id of a span kind the fast path of :meth:`record` did not
        find: an existing shared kind, or a new one (validated first)."""
        meta = _normalize_meta(meta) if meta else ()
        nbytes_type = type(nbytes)
        shared = type(elements) is int and (
            nbytes_type is int
            or nbytes_type is float and nbytes == nbytes
            and (nbytes != 0.0 or math.copysign(1.0, nbytes) > 0.0))
        if shared:
            for _k, v in meta:
                if type(v) is not str and type(v) is not int:
                    shared = False
                    break
        key = (category, label, lane, nbytes, elements, meta, nbytes_type)
        k = self._kind_ids.get(key) if shared else None
        if k is None:
            for what, value in (("category", category), ("label", label),
                                ("lane", lane)):
                if not isinstance(value, str):
                    raise TypeError(
                        f"span {what} must be a str, got {value!r}")
            # Validated: from here on nothing raises.
            k = len(self._kinds)
            self._kinds.append(key)
            if shared:
                self._kind_ids[key] = k
        return k

    # -- the span view -------------------------------------------------------

    @property
    def spans(self) -> SpanView:
        """Every recorded :class:`Span`, in id order (a read-only view)."""
        return SpanView(self)

    def span_by_id(self, span_id: int) -> Span:
        """The span with the given id (ids are list indices)."""
        return self._materialize()[span_id]

    def _materialize(self) -> list[Span]:
        built = self._built
        if len(built) < len(self._start):
            built.extend(map(self._build, range(len(built),
                                                len(self._start))))
        return built

    def _build(self, sid: int) -> Span:
        category, label, lane, nbytes, elements, meta, _ = \
            self._kinds[self._kind[sid]]
        start, end = self._exact_times.get(sid) or (self._start[sid],
                                                    self._end[sid])
        span = object.__new__(Span)
        _set_category(span, category)
        _set_label(span, label)
        _set_start(span, start)
        _set_end(span, end)
        _set_lane(span, lane)
        _set_nbytes(span, nbytes)
        _set_elements(span, elements)
        _set_meta(span, meta)
        _set_id(span, sid)
        _set_deps(span, tuple(
            self._deps[self._dep_off[sid]:self._dep_off[sid + 1]]))
        return span

    def _times(self) -> tuple[_t.Sequence, _t.Sequence]:
        """The exact ``(starts, ends)`` in id order: the columns
        themselves unless some times are not floats."""
        if not self._exact_times:
            return self._start, self._end
        starts, ends = list(self._start), list(self._end)
        for sid, (start, end) in self._exact_times.items():
            starts[sid] = start
            ends[sid] = end
        return starts, ends

    def _kinds_where(self, categories: _t.Container[str] | None,
                     lane: str | None = None) -> set[int]:
        """Ids of the kinds in ``categories`` and on ``lane`` (``None``:
        any)."""
        return {k for k, (c, _lb, ln, *_) in enumerate(self._kinds)
                if (categories is None or c in categories)
                and (lane is None or ln == lane)}

    def edges(self) -> _t.Iterator[tuple[int, int]]:
        """All causal edges as ``(parent_id, child_id)`` pairs, in
        deterministic (child, then parent) order."""
        deps, off = self._deps, self._dep_off
        for sid in range(len(self._start)):
            for d in deps[off[sid]:off[sid + 1]]:
                yield d, sid

    # -- serialization -------------------------------------------------------

    def _span_dict(self, sid: int) -> dict:
        """Span ``sid``'s record: one :meth:`to_dict` entry, and the data
        of its ``span`` event."""
        category, label, lane, nbytes, elements, meta, _ = \
            self._kinds[self._kind[sid]]
        start, end = self._exact_times.get(sid) or (self._start[sid],
                                                    self._end[sid])
        off = self._dep_off
        return {"id": sid, "category": category, "label": label,
                "start": start, "end": end, "lane": lane,
                "nbytes": nbytes, "elements": elements,
                "meta": [list(kv) for kv in meta],
                "deps": list(self._deps[off[sid]:off[sid + 1]])}

    def to_dict(self) -> dict:
        """JSON-serialisable form (spans with ids, deps and meta)."""
        return {"spans": [self._span_dict(sid)
                          for sid in range(len(self._start))]}

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
        kinds = self._kinds_where({category})
        return sum(e - s for k, s, e in zip(self._kind, *self._times())
                   if k in kinds)

    def busy_time(self, categories: _t.Iterable[str] | None = None,
                  lane: str | None = None) -> float:
        """Union length of span intervals (overlaps collapsed), optionally
        restricted to ``categories`` and/or a ``lane``."""
        kinds = self._kinds_where(
            None if categories is None else set(categories), lane)
        ivs = sorted((s, e) for k, s, e in zip(self._kind, *self._times())
                     if k in kinds)
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
        category = [kind[0] for kind in self._kinds]
        out: dict[str, float] = {}
        for k, s, e in zip(self._kind, *self._times()):
            c = category[k]
            out[c] = out.get(c, 0.0) + (e - s)
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def count(self, category: str) -> int:
        """Number of spans in ``category``."""
        return sum(map(self._kind.count, self._kinds_where({category})))

    def bytes_moved(self, category: str) -> float:
        """Total payload bytes across spans of ``category``."""
        kinds = self._kinds_where({category})
        nbytes = [kind[3] for kind in self._kinds]
        return sum(nbytes[k] for k in self._kind if k in kinds)

    def makespan(self) -> float:
        """End of the last span minus start of the first."""
        if not self._start:
            return 0.0
        starts, ends = self._times()
        return max(ends) - min(starts)

    def window(self) -> tuple[float, float]:
        """``(earliest start, latest end)`` across all spans
        (``(0.0, 0.0)`` when empty)."""
        if not self._start:
            return 0.0, 0.0
        starts, ends = self._times()
        return min(starts), max(ends)

    def categories(self) -> list[str]:
        """Distinct categories in first-seen order."""
        return list(dict.fromkeys(kind[0] for kind in self._kinds))

    def lanes(self) -> list[str]:
        """Distinct lanes in first-seen order."""
        return list(dict.fromkeys(kind[2] for kind in self._kinds))

    def filter(self, category: str | None = None,
               lane: str | None = None) -> list[Span]:
        """Spans matching the given category and/or lane."""
        kinds = self._kinds_where(
            None if category is None else {category}, lane)
        spans = self._materialize()
        return [spans[sid] for sid, k in enumerate(self._kind) if k in kinds]

