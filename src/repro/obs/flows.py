"""Interconnect flow observatory: the per-flow bandwidth grant ledger.

The paper's central finding is that end-to-end heterogeneous sort time
is dominated by host<->device transfers, yet the max-min fair allocator
in :mod:`repro.sim.bandwidth` computes per-flow rates continuously and
discards them.  The :class:`FlowLedger` keeps them: attached as
``FlowNetwork.ledger`` it records, for every :class:`~repro.sim.bandwidth.Flow`,

* the lifecycle -- start/end simulated times, bytes, the weighted link
  path, and (bound post-hoc by the machine primitives) the causal-trace
  span that owns the transfer;
* a piecewise-constant **granted-rate timeline**: one ``[t, rate,
  progressed]`` capture at every allocator update while the flow is
  active.  Because every :meth:`FlowNetwork._advance` accumulation step
  is immediately followed by exactly one allocator update, consecutive
  captures satisfy ``p[i+1] == p[i] + rate[i] * (t[i+1] - t[i])`` *bit
  for bit* -- the rate integral equals the bytes moved exactly, not
  approximately (:func:`verify_rate_integral` pins it).

Everything else is post-hoc analysis of the serialized ``repro.flows/v1``
document (:meth:`FlowLedger.to_dict`, byte-stable through
:func:`repro.obs.diff.canonical_json`):

* :func:`link_timelines` / :func:`link_utilization` -- per-link
  aggregate granted rate and saturation step series;
* :func:`concurrency_series` -- flows-in-flight over time;
* :func:`attribute_contention` -- each flow's measured duration
  decomposed into *isolation* time (what the bytes would have taken at
  full bottleneck bandwidth) plus slowdown charged to the specific
  concurrent flows sharing its links.  The parts sum back to the
  measured duration **bit for bit** in sorted key order, via the same
  absorber + half-ulp tie walk as
  :func:`repro.obs.conformance.residual_attribution`;
* :func:`reconcile_flow_spans` -- every span-bound flow must end
  exactly when its causal-trace span ends;
* :func:`flow_rate_counters` -- ``link.<name>.bw_bytes_per_s`` counter
  tracks for the Perfetto exporter.

Recording follows the bus's neutrality invariant: the ledger never
schedules simulation events, and with no ledger attached every network
hook is a single ``is None`` check (zero overhead when disabled).
"""

from __future__ import annotations

import math
import typing as _t
from array import array

from repro.errors import FlowLedgerError
from repro.obs.conformance import _exact_split
from repro.obs.counters import CounterSeries
from repro.obs.events import EV
from repro.sim.trace import span_index

__all__ = ["FLOWS_SCHEMA", "CONTENTION_SCHEMA", "RECONCILE_SCHEMA",
           "FlowLedger", "link_timelines", "link_utilization",
           "link_peaks", "concurrency_series",
           "settled_split", "attribute_contention", "verify_contention",
           "verify_rate_integral", "reconcile_flow_spans",
           "flow_rate_counters"]

#: Schema identifier of the serialized flow ledger.
FLOWS_SCHEMA = "repro.flows/v1"
#: Schema identifier of the contention-attribution document.
CONTENTION_SCHEMA = "repro.flow_contention/v1"
#: Schema identifier of the span-reconciliation verdict.
RECONCILE_SCHEMA = "repro.flow_reconcile/v1"

#: Pending capture values (four per capture) that trigger a flush.
_FLUSH_AT = 4096


class FlowLedger:
    """Per-flow bandwidth grant ledger for one :class:`FlowNetwork`.

    ``capacities`` maps link names to their bytes/second capacity (used
    for utilization; :meth:`on_capacity` records mid-run changes).  The
    recording hooks (``on_start`` / ``on_update`` / ``on_end`` /
    ``on_capacity``) are called by the network behind its single
    ``ledger is None`` check; :meth:`bind_span` is called by the machine
    primitives after the owning trace span is recorded.

    Storage is columnar, so recording allocates no object per flow or
    per capture: typed arrays indexed by flow id (kind, start, end,
    moved, span) and four capture arrays (``fid``, ``t``, ``rate``,
    ``progressed``).  A flow's *kind* -- its label, ``nbytes``, tenant
    and link shape (the ``[name, weight]`` path with ``cap`` and
    ``iso_rate``) -- is stored once per distinct value; a paper-scale
    run has 40,010 flows of 14 kinds.  An unfinished flow's ``end`` is
    NaN (the engine never runs at a NaN time), its ``moved`` is unset and
    an unbound ``span`` is -1.  The :attr:`flows` records are built from
    the columns on first read.

    Each active flow carries its own last capture (``_last_t``,
    ``_last_rate``, ``_last_progressed``), which :meth:`on_update`
    compares against; a NaN ``_last_rate`` means "no capture yet".
    """

    def __init__(self, clock: _t.Callable[[], float] | None = None,
                 capacities: _t.Mapping[str, float] | None = None) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.capacities = {str(k): float(v)
                           for k, v in (capacities or {}).items()}
        #: ``[t, link, bytes_per_s]`` rows, one per ``set_capacity``.
        self.capacity_events: list[list] = []
        #: Streaming telemetry: optional
        #: :class:`~repro.obs.events.EventBus` that every lifecycle and
        #: rate-change record is mirrored onto (``flow.start`` /
        #: ``flow.rate`` / ``flow.end``).
        self.bus = None
        # Per-flow columns, indexed by the ledger-assigned flow id.
        self._kind = array("I")
        self._start = array("d")
        self._end = array("d")
        self._span = array("i")
        self._moved = array("d")
        #: ``(label, nbytes, sign of nbytes, shape id, tenant)`` -> kind
        #: id, in id order.  The sign keeps 0.0 and -0.0 apart.
        self._kind_ids: dict[tuple, int] = {}
        # Captures: one entry per allocator update per active flow.
        self._cap_fid = array("I")
        self._cap_t = array("d")
        self._cap_rate = array("d")
        self._cap_progressed = array("d")
        #: Captures not yet moved into the arrays, as flat ``fid, t,
        #: rate, progressed`` values (a list append is cheaper than four
        #: array appends; :meth:`_flush` moves them in bulk).
        self._pending: list = []
        # Shape table: (links, cap, the links' capacities) -> shape id,
        # and per id the ([name, weight] pairs, cap, iso_rate) it records.
        self._shape_ids: dict[tuple, int] = {}
        self._shapes: list[tuple[list[list], float | None, float | None]] = []
        #: ``(links, cap)`` -> shape id under the current capacities
        #: (cleared by :meth:`on_capacity`).
        self._route_shapes: dict[tuple, int] = {}
        self._view: list[dict] | None = None

    # -- recording hooks (called by FlowNetwork) -----------------------------

    def on_start(self, flow, now: float) -> None:
        """A flow joined the network (or completed instantly, for the
        zero-byte path); assigns the flow its ledger id."""
        fid = len(self._kind)
        flow.fid = fid
        flow._last_rate = math.nan
        links, cap = flow.links, flow.cap
        shape = self._route_shapes.get((links, cap))
        if shape is None:
            key = (links, cap, tuple([link.capacity for link, _w in links]))
            shape = self._shape_ids.get(key)
            if shape is None:
                shape = self._shape_ids[key] = self._add_shape(flow)
            self._route_shapes[links, cap] = shape
        # Tenant attribution (multi-tenant service runs).  Records carry
        # it only when present so untagged runs keep producing
        # byte-identical repro.flows/v1 documents (the flows gate
        # digests them).
        nbytes = flow.nbytes
        kind = (flow.label, nbytes, math.copysign(1.0, nbytes), shape,
                flow.tenant)
        kinds = self._kind_ids
        k = kinds.get(kind)
        if k is None:
            k = kinds[kind] = len(kinds)
        self._kind.append(k)
        self._start.append(now)
        self._end.append(math.nan)
        self._span.append(-1)
        self._moved.append(0.0)
        self._view = None
        if self.bus is not None:
            links = [list(pair) for pair in self._shapes[shape][0]]
            self.bus.emit(EV.FLOW_START, id=fid, nbytes=flow.nbytes,
                          links=links, label=flow.label)

    def _add_shape(self, flow) -> int:
        # Isolation rate: what the flow would be granted alone -- its own
        # cap or the tightest weighted link capacity, whichever binds.
        iso = flow.cap
        for link, weight in flow.links:
            alone = link.capacity / weight
            if alone < iso:
                iso = alone
        self._shapes.append((
            [[link.name, weight] for link, weight in flow.links],
            flow.cap if math.isfinite(flow.cap) else None,
            iso if math.isfinite(iso) else None))
        return len(self._shapes) - 1

    def on_update(self, now: float, flows: _t.Iterable) -> None:
        """The allocator refilled; capture every active flow's granted
        rate and progress.  Same-instant re-captures are deduplicated;
        only actual rate changes are mirrored onto the bus."""
        pending = self._pending
        bus = self.bus
        for f in flows:
            rate = f.rate
            progressed = f.progressed
            last_rate = f._last_rate
            if last_rate == rate:
                if f._last_t == now and f._last_progressed == progressed:
                    continue
            elif bus is not None:   # the rate changed (or a first capture)
                bus.emit(EV.FLOW_RATE, id=f.fid, rate=rate)
            f._last_t = now
            f._last_rate = rate
            f._last_progressed = progressed
            pending += (f.fid, now, rate, progressed)
        if len(pending) >= _FLUSH_AT:
            self._flush()
        self._view = None

    def _flush(self) -> None:
        pending = self._pending
        self._cap_fid.fromlist(pending[0::4])
        self._cap_t.fromlist(pending[1::4])
        self._cap_rate.fromlist(pending[2::4])
        self._cap_progressed.fromlist(pending[3::4])
        pending.clear()

    def on_end(self, flow, now: float) -> None:
        """A flow completed; freeze its end time and bytes moved."""
        fid = flow.fid
        self._end[fid] = now
        self._moved[fid] = flow.progressed
        flow._last_rate = math.nan
        self._view = None
        if self.bus is not None:
            self.bus.emit(EV.FLOW_END, id=fid, moved=flow.progressed)

    def on_capacity(self, name: str, capacity: float, now: float) -> None:
        """A link's capacity changed mid-run (fault injection)."""
        self.capacity_events.append([now, str(name), float(capacity)])
        self._route_shapes.clear()

    def bind_span(self, flow, span_id: int) -> None:
        """Attach the owning causal-trace span to a recorded flow (the
        machine primitives call this after ``trace.record``).

        ``span_id`` is an int, a numpy integer or a
        :class:`~repro.sim.trace.Span`; a ``bool`` or a non-integral
        value raises :class:`TypeError`."""
        fid = getattr(flow, "fid", -1)
        if not 0 <= fid < len(self._span):
            raise FlowLedgerError(
                f"cannot bind span {span_id} to unrecorded flow "
                f"{getattr(flow, 'label', flow)!r}")
        if type(span_id) is not int:
            span_id = span_index(span_id)
        if span_id < 0:
            raise FlowLedgerError(
                f"cannot bind negative span id {span_id} to flow "
                f"{getattr(flow, 'label', flow)!r}")
        self._span[fid] = span_id
        self._view = None

    # -- views ---------------------------------------------------------------

    @property
    def flows(self) -> list[dict]:
        """One record per flow, indexed by flow id: the ``flows`` entries
        of :meth:`to_dict`.  Built from the columns on first read and
        cached until the next recording hook."""
        if self._view is None:
            self._view = self._build_records()
        return self._view

    def _build_records(self) -> list[dict]:
        self._flush()
        rates: list[list[list]] = [[] for _ in self._kind]
        for fid, t, rate, progressed in zip(
                self._cap_fid, self._cap_t, self._cap_rate,
                self._cap_progressed):
            rates[fid].append([t, rate, progressed])
        shapes, kinds = self._shapes, list(self._kind_ids)
        records = []
        for fid, (kind, start, end, span, moved) in enumerate(zip(
                self._kind, self._start, self._end, self._span, self._moved)):
            label, nbytes, _sign, shape, tenant = kinds[kind]
            links, cap, iso = shapes[shape]
            ended = end == end
            rec = {
                "id": fid,
                "label": label,
                "nbytes": nbytes,
                "links": [list(pair) for pair in links],
                "cap": cap,
                "iso_rate": iso,
                "start": start,
                "end": end if ended else None,
                "span": span if span >= 0 else None,
                "moved": moved if ended else None,
                "rates": rates[fid],
            }
            if tenant is not None:
                rec["tenant"] = tenant
            records.append(rec)
        return records

    @property
    def n_flows(self) -> int:
        return len(self._kind)

    @property
    def bytes_moved(self) -> float:
        """Total bytes actually moved by completed flows."""
        return sum(m for m, e in zip(self._moved, self._end) if e == e)

    @property
    def spans_bound(self) -> int:
        return len(self._span) - self._span.count(-1)

    def bytes_by_tenant(self) -> dict[str, float]:
        """Bytes moved per tenant, summed in flow order; untagged flows
        are left out and a flow still in flight counts zero."""
        kinds = list(self._kind_ids)
        out: dict[str, float] = {}
        for kind, moved, end in zip(self._kind, self._moved, self._end):
            tenant = kinds[kind][4]
            if tenant is None:
                continue
            out[tenant] = out.get(tenant, 0.0) + (
                moved if end == end and moved else 0.0)
        return out

    def to_dict(self) -> dict:
        """The full ledger as a ``repro.flows/v1`` document (canonical
        JSON of this is byte-stable across identical runs)."""
        return {
            "schema": FLOWS_SCHEMA,
            "capacities": dict(sorted(self.capacities.items())),
            "capacity_events": [list(e) for e in self.capacity_events],
            "n_flows": self.n_flows,
            "flows": self._build_records(),
        }

    def summary(self) -> dict:
        """Scalar summary for ``SortResult.metrics['flows']``.

        The analyses only read their document, so they run on the cached
        :attr:`flows` records rather than a :meth:`to_dict` copy.
        """
        view = {"flows": self.flows, "capacities": self.capacities,
                "capacity_events": self.capacity_events}
        peaks = {name: d["peak_utilization"]
                 for name, d in link_peaks(view).items()}
        contention = attribute_contention(view)
        return {
            "n_flows": self.n_flows,
            "bytes_moved": self.bytes_moved,
            "spans_bound": self.spans_bound,
            "peak_utilization": peaks,
            "link_peak_utilization": max(peaks.values(), default=0.0),
            "transfer_contention_s": contention["total_contention_s"],
        }


# ---------------------------------------------------------------------------
# Post-hoc analyses of a repro.flows/v1 document
# ---------------------------------------------------------------------------

def link_timelines(doc: dict) -> dict[str, list[tuple[float, float]]]:
    """Per-link aggregate granted rate as a ``[(t, bytes/s), ...]`` step
    series.

    Every flow active at an allocator update has a capture at that
    instant, so the load at each capture time is an exact sum over the
    captures -- no prefix-sum cancellation.  A link drops to an explicit
    zero at the instant its last flow completes.
    """
    loads: dict[str, dict[float, float]] = {}
    for f in doc.get("flows", []):
        # A flow can carry several same-instant captures (its join plus
        # a reallocation at the same sim time); the last one appended is
        # the rate that actually flowed from that instant on.
        operative: dict[float, float] = {}
        for t, rate, _p in f["rates"]:
            operative[t] = rate
        for name, weight in f["links"]:
            per = loads.setdefault(name, {})
            for t, rate in operative.items():
                per[t] = per.get(t, 0.0) + weight * rate
    for f in doc.get("flows", []):
        if f["end"] is None:
            continue
        for name, _weight in f["links"]:
            loads.setdefault(name, {}).setdefault(f["end"], 0.0)
    for name in doc.get("capacities", {}):
        loads.setdefault(name, {})
    return {name: sorted(per.items())
            for name, per in sorted(loads.items())}


def link_utilization(doc: dict) -> dict[str, list[tuple[float, float]]]:
    """Per-link saturation (granted rate / capacity in effect) step
    series; links with unknown capacity are omitted."""
    return _utilization(doc, link_timelines(doc))


def _utilization(doc: dict, timelines: dict[str, list[tuple[float, float]]]
                 ) -> dict[str, list[tuple[float, float]]]:
    events: dict[str, list[tuple[float, float]]] = {}
    for t, name, cap in doc.get("capacity_events", []):
        events.setdefault(name, []).append((t, cap))
    out: dict[str, list[tuple[float, float]]] = {}
    for name, pts in timelines.items():
        cap = doc.get("capacities", {}).get(name)
        # Stable on time alone: of several same-instant changes, the
        # last one written is the capacity in effect.
        evs = sorted(events.get(name, []), key=lambda e: e[0])
        if cap is None and not evs:
            continue
        series = []
        i = 0
        for t, load in pts:
            while i < len(evs) and evs[i][0] <= t:
                cap = evs[i][1]
                i += 1
            series.append((t, load / cap if cap else 0.0))
        out[name] = series
    return out


def link_peaks(doc: dict) -> dict[str, dict]:
    """Per-link headline numbers: capacity, peak granted rate, peak
    utilization."""
    timelines = link_timelines(doc)
    util = _utilization(doc, timelines)
    out = {}
    for name, pts in timelines.items():
        out[name] = {
            "capacity_bytes_per_s": doc.get("capacities", {}).get(name),
            "peak_bytes_per_s": max((v for _, v in pts), default=0.0),
            "peak_utilization": max((v for _, v in util.get(name, [])),
                                    default=0.0),
        }
    return out


def concurrency_series(doc: dict) -> list[tuple[float, int]]:
    """Flows-in-flight over time as a ``[(t, count), ...]`` step series
    (integer-exact; zero-byte flows contribute a net zero)."""
    deltas: dict[float, int] = {}
    for f in doc.get("flows", []):
        deltas[f["start"]] = deltas.get(f["start"], 0) + 1
        if f["end"] is not None:
            deltas[f["end"]] = deltas.get(f["end"], 0) - 1
    out: list[tuple[float, int]] = []
    current = 0
    for t in sorted(deltas):
        current += deltas[t]
        out.append((t, current))
    return out


def settled_split(total: float,
                  weights: _t.Mapping[str, float]) -> dict[str, float]:
    """Split ``total`` proportionally over ``weights`` so that summing
    the returned parts in sorted key order reproduces ``total`` *bit for
    bit*, with the same exact split as
    :func:`repro.obs.conformance.residual_attribution`.  Degenerate
    weights (empty, or summing to <= 0) put everything on an
    ``"unattributed"`` part.  The weights are summed in sorted key
    order, not insertion order, so the two functions' parts differ in
    the last bits on about a quarter of share maps.
    """
    wsum = 0.0
    for c in sorted(weights):
        wsum += weights[c]
    if not weights or wsum <= 0:
        return {"unattributed": total}
    return _exact_split(total, weights, wsum)


def attribute_contention(doc: dict) -> dict:
    """Decompose every completed flow's measured duration into isolation
    time plus slowdown charged to the concurrent flows sharing its
    links.

    Per rate segment the flow's bytes would have taken ``rate * dt /
    iso_rate`` seconds alone; the remainder of the segment is *excess*
    caused by contention, split over the concurrent flows in proportion
    to the byte volume they pushed through shared links during that
    segment (weighted by their link weights).  Excess with no sharer in
    sight (a capacity-degradation window) lands on ``"unattributed"``.
    The final ``parts`` -- ``"isolation"``, ``"flow:<id>"`` charges and
    ``"unattributed"`` -- sum to ``duration_s`` bit for bit in sorted
    key order (:func:`settled_split`); :func:`verify_contention`
    re-checks that independently.
    """
    flows = doc.get("flows", [])
    linkset = {f["id"]: {name: w for name, w in f["links"]} for f in flows}
    at: dict[float, list[tuple[int, float]]] = {}
    for f in flows:
        fid = f["id"]
        for t, rate, _p in f["rates"]:
            at.setdefault(t, []).append((fid, rate))
    out_flows = []
    total_contention = 0.0
    for f in flows:
        fid, end = f["id"], f["end"]
        if end is None:
            continue
        duration = end - f["start"]
        rates = f["rates"]
        iso_rate = f.get("iso_rate")
        base = {"id": fid, "label": f["label"], "span": f["span"],
                "duration_s": duration}
        if duration <= 0.0 or not rates or not iso_rate:
            base.update(isolation_s=duration, slowdown_s=0.0,
                        parts={"isolation": duration})
            out_flows.append(base)
            continue
        mylinks = linkset[fid]
        iso_w = 0.0
        shares: dict[str, float] = {}
        unattributed = 0.0
        for i, (t, rate, _p) in enumerate(rates):
            t_next = rates[i + 1][0] if i + 1 < len(rates) else end
            dt = t_next - t
            if dt <= 0.0:
                continue
            iso_dt = (rate * dt) / iso_rate
            if iso_dt > dt:
                iso_dt = dt
            iso_w += iso_dt
            excess = dt - iso_dt
            if excess <= 0.0:
                continue
            w: dict[int, float] = {}
            for gid, grate in at.get(t, ()):
                if gid == fid or grate <= 0.0:
                    continue
                shared = 0.0
                for name, gweight in linkset[gid].items():
                    if name in mylinks:
                        shared += gweight
                if shared > 0.0:
                    w[gid] = shared * grate * dt
            tot = 0.0
            for gid in sorted(w):
                tot += w[gid]
            if tot > 0.0:
                for gid in sorted(w):
                    key = f"flow:{gid}"
                    shares[key] = shares.get(key, 0.0) \
                        + excess * (w[gid] / tot)
            else:
                unattributed += excess
        weights: dict[str, float] = {"isolation": iso_w}
        weights.update(shares)
        if unattributed > 0.0:
            weights["unattributed"] = unattributed
        parts = settled_split(duration, weights)
        isolation = parts.get("isolation", 0.0)
        slowdown = duration - isolation
        total_contention += slowdown
        base.update(isolation_s=isolation, slowdown_s=slowdown,
                    parts=parts)
        out_flows.append(base)
    return {"schema": CONTENTION_SCHEMA, "flows": out_flows,
            "n_flows": len(out_flows),
            "total_contention_s": total_contention}


def verify_contention(contention: dict) -> dict:
    """Independently re-check the bit-for-bit attribution invariant:
    for every flow, summing ``parts`` in sorted key order (the order
    canonical JSON preserves) must reproduce ``duration_s`` exactly."""
    failures = []
    for f in contention["flows"]:
        parts = f["parts"]
        s = 0.0
        for k in sorted(parts):
            s += parts[k]
        if s != f["duration_s"]:
            failures.append(
                f"flow {f['id']} ({f['label']}): parts sum {s!r} != "
                f"duration {f['duration_s']!r}")
    return {"ok": not failures, "n_flows": len(contention["flows"]),
            "failures": failures}


def verify_rate_integral(doc: dict) -> dict:
    """Check the exact rate-integral invariant of the ledger.

    Between consecutive captures the network performed exactly one
    progress accumulation ``progressed += rate * dt`` with the same
    operands the ledger recorded, so ``p[i+1] == p[i] + rate[i] *
    (t[i+1] - t[i])`` must hold bit for bit -- and the bytes moved at
    completion must equal the last capture advanced to the end time the
    same way.  Any miss means the ledger and the allocator disagree.
    """
    failures = []
    checked = 0
    for f in doc.get("flows", []):
        pts = f["rates"]
        if not pts:
            if f["end"] is None or f["nbytes"] > 1e-6:
                failures.append(
                    f"flow {f['id']} ({f['label']}): no rate captures")
            continue
        checked += 1
        if pts[0][2] != 0.0:
            failures.append(
                f"flow {f['id']} ({f['label']}): first capture has "
                f"nonzero progress {pts[0][2]!r}")
            continue
        pt, pr, pp = pts[0]
        clean = True
        for t, rate, p in pts[1:]:
            if p != pp + pr * (t - pt):
                failures.append(
                    f"flow {f['id']} ({f['label']}): integral drift at "
                    f"t={t!r} ({p!r} != {pp + pr * (t - pt)!r})")
                clean = False
                break
            pt, pr, pp = t, rate, p
        if clean and f["end"] is not None and f["moved"] is not None:
            final = pp + pr * (f["end"] - pt)
            if f["moved"] != final:
                failures.append(
                    f"flow {f['id']} ({f['label']}): moved {f['moved']!r}"
                    f" != rate integral {final!r}")
    return {"ok": not failures, "checked": checked, "failures": failures}


def reconcile_flow_spans(doc: dict, trace) -> dict:
    """Reconcile the ledger against the causal trace: every span-bound
    flow must end exactly when its span ends and start no earlier than
    the span starts (merge spans include compute lead-in before their
    flow joins the bus)."""
    spans = trace.spans
    failures: list[str] = []
    checked = unbound = 0
    for f in doc.get("flows", []):
        sid = f.get("span")
        if sid is None:
            unbound += 1
            continue
        if not 0 <= sid < len(spans):
            failures.append(
                f"flow {f['id']} ({f['label']}): span {sid} not in trace")
            continue
        span = spans[sid]
        checked += 1
        if f["end"] != span.end:
            failures.append(
                f"flow {f['id']} ({f['label']}): ends at {f['end']!r} "
                f"but span {sid} ends at {span.end!r}")
        if f["start"] < span.start:
            failures.append(
                f"flow {f['id']} ({f['label']}): starts at {f['start']!r}"
                f" before span {sid} starts at {span.start!r}")
    return {"schema": RECONCILE_SCHEMA, "ok": not failures,
            "checked": checked, "unbound": unbound, "failures": failures}


def flow_rate_counters(doc: dict) -> dict[str, CounterSeries]:
    """``link.<name>.bw_bytes_per_s`` Perfetto counter tracks for every
    link in the ledger (merge into the recorder's series mapping when
    exporting a chrome trace)."""
    out = {}
    for name, pts in link_timelines(doc).items():
        track = f"link.{name}.bw_bytes_per_s"
        series = out[track] = CounterSeries(track, "bytes/s")
        for t, rate in pts:
            series.add(t, rate)
    return out
