"""The columnar recorders against list-based references.

``Trace``, ``FlowLedger`` and ``CounterSeries`` store typed columns and
interned values instead of one Python object per span, capture or
sample.  These tests keep straightforward list-based recorders (the
storage the columns replaced) and check that every serialized value
keeps its type and bit pattern: ``repr`` tells ``-0.0`` from ``0.0``,
``8`` from ``8.0`` and every subnormal apart.  A paper-shaped run must
also leave no ``Span`` object behind until a span is read.
"""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hetsort import HeterogeneousSorter
from repro.hw.platforms import PLATFORM1
from repro.obs.counters import CounterSeries
from repro.obs.flows import FLOWS_SCHEMA, FlowLedger
from repro.sim.trace import CAT, Span, Trace

# ---------------------------------------------------------------------------
# List-based references
# ---------------------------------------------------------------------------


class ListTrace:
    """One ``Span`` per record, aggregates computed over the list."""

    def __init__(self):
        self.spans = []

    def record(self, category, label, start, end, lane="", nbytes=0.0,
               elements=0, meta=(), deps=()):
        items = meta.items() if isinstance(meta, dict) else meta
        dep_ids = sorted({int(d) for d in deps if d is not None})
        self.spans.append(Span(
            category, label, start, end, lane=lane, nbytes=nbytes,
            elements=elements,
            meta=tuple(sorted((str(k), v) for k, v in items)),
            id=len(self.spans), deps=tuple(dep_ids)))

    def to_dict(self):
        return {"spans": [
            {"id": s.id, "category": s.category, "label": s.label,
             "start": s.start, "end": s.end, "lane": s.lane,
             "nbytes": s.nbytes, "elements": s.elements,
             "meta": [list(kv) for kv in s.meta], "deps": list(s.deps)}
            for s in self.spans]}

    def aggregates(self, cats, lane):
        spans = self.spans
        breakdown = {}
        for s in spans:
            breakdown[s.category] = (breakdown.get(s.category, 0.0)
                                     + s.duration)
        ivs = sorted((s.start, s.end) for s in spans
                     if s.category in cats and s.lane == lane)
        return {
            "total": [sum(s.duration for s in spans if s.category == c)
                      for c in cats],
            "count": [sum(1 for s in spans if s.category == c)
                      for c in cats],
            "bytes": [sum(s.nbytes for s in spans if s.category == c)
                      for c in cats],
            "breakdown": dict(sorted(breakdown.items(),
                                     key=lambda kv: -kv[1])),
            "window": (min(s.start for s in spans),
                       max(s.end for s in spans)) if spans else (0.0, 0.0),
            "makespan": (max(s.end for s in spans)
                         - min(s.start for s in spans)) if spans else 0.0,
            "categories": list(dict.fromkeys(s.category for s in spans)),
            "lanes": list(dict.fromkeys(s.lane for s in spans)),
            "filter": [s for s in spans
                       if s.category == cats[0] and s.lane == lane],
            "busy": _union_length(ivs),
        }


def _union_length(ivs):
    total, cur_s, cur_e = 0.0, None, 0.0
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


def _aggregates(trace, cats, lane):
    return {
        "total": [trace.total(c) for c in cats],
        "count": [trace.count(c) for c in cats],
        "bytes": [trace.bytes_moved(c) for c in cats],
        "breakdown": trace.breakdown(),
        "window": trace.window(),
        "makespan": trace.makespan(),
        "categories": trace.categories(),
        "lanes": trace.lanes(),
        "filter": trace.filter(category=cats[0], lane=lane),
        "busy": trace.busy_time(cats, lane=lane),
    }


class ListLedger:
    """One record dict per flow, one ``[t, rate, progressed]`` list per
    capture."""

    def __init__(self):
        self.records = []

    def on_start(self, flow, now):
        flow.fid = len(self.records)
        iso = flow.cap
        for link, weight in flow.links:
            iso = min(iso, link.capacity / weight)
        rec = {"id": flow.fid, "label": flow.label, "nbytes": flow.nbytes,
               "links": [[link.name, w] for link, w in flow.links],
               "cap": flow.cap if math.isfinite(flow.cap) else None,
               "iso_rate": iso if math.isfinite(iso) else None,
               "start": now, "end": None, "span": None, "moved": None,
               "rates": []}
        if flow.tenant is not None:
            rec["tenant"] = flow.tenant
        self.records.append(rec)

    def on_update(self, now, flows):
        for f in flows:
            rates = self.records[f.fid]["rates"]
            if rates and (rates[-1][0] == now and rates[-1][1] == f.rate
                          and rates[-1][2] == f.progressed):
                continue
            rates.append([now, f.rate, f.progressed])

    def on_end(self, flow, now):
        self.records[flow.fid].update(end=now, moved=flow.progressed)

    def bind_span(self, flow, span_id):
        self.records[flow.fid]["span"] = span_id

    def to_dict(self):
        return {"schema": FLOWS_SCHEMA, "capacities": {},
                "capacity_events": [], "n_flows": len(self.records),
                "flows": self.records}


class ListSeries:
    def __init__(self):
        self.times, self.values = [], []

    def add(self, t, value):
        if self.times and t == self.times[-1]:
            self.values[-1] = value
        else:
            self.times.append(t)
            self.values.append(value)


class _Link:
    def __init__(self, name, capacity):
        self.name, self.capacity = name, capacity


class _Flow:
    def __init__(self, label, nbytes, links, cap, tenant):
        self.label, self.nbytes, self.links = label, nbytes, links
        self.cap, self.tenant = cap, tenant
        self.rate = self.progressed = 0.0
        self.fid = -1


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Values whose repr an interning or float-column bug would change.
#: Drawn mostly from small pools, so that equal-but-different values
#: (``8`` and ``8.0``, ``0.0`` and ``-0.0``) meet in one recorder.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-310, 0.1, 1.0, 8.0, 1e300, 2.0 ** 53 + 2.0]
floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False,
                             width=64))
nbytes = st.one_of(st.sampled_from([0, 0.0, -0.0, 8, 8.0, 1, True]),
                   floats, st.integers(-2 ** 70, 2 ** 70))
elements = st.one_of(st.sampled_from([0, 1, 1, True]),
                     st.integers(-2 ** 70, 2 ** 70))
metas = st.sampled_from([{}, {"k": 1}, {"k": 1.0}, {"k": True},
                         {"k": 0.0}, {"k": -0.0}, {"k": (1, 2)},
                         {"threads": 4, "k": "gnu"}])
times = st.one_of(floats, st.integers(-10, 10))


@st.composite
def span_records(draw):
    out = []
    for i in range(draw(st.integers(0, 16))):
        a, b = sorted([draw(times), draw(times)])
        deps = draw(st.lists(st.one_of(st.none(),
                                       st.integers(0, i - 1) if i else
                                       st.none()), max_size=3))
        out.append(dict(
            category=draw(st.sampled_from([CAT.HTOD, CAT.SYNC])),
            label=draw(st.sampled_from(["a", "b"])),
            start=a, end=b,
            lane=draw(st.sampled_from(["gpu0", "host"])),
            nbytes=draw(nbytes), elements=draw(elements),
            meta=draw(metas), deps=deps))
    return out


@st.composite
def ledger_script(draw):
    links = [_Link("pcie", 1e10), _Link("host", 2.5e10)]
    shapes = [((links[0], 1.0),), ((links[0], 1.0), (links[1], 2.0))]
    flows, steps, now = [], [], 0.0
    for _ in range(draw(st.integers(0, 6))):
        now += draw(st.sampled_from([0.0, 5e-324, 0.5, 1e-300]))
        flow = _Flow(draw(st.sampled_from(["x", "y"])),
                     draw(st.one_of(st.sampled_from([0.0, -0.0, 8.0]),
                                    floats)),
                     draw(st.sampled_from(shapes)),
                     draw(st.sampled_from([math.inf, 1e9, 5e-324])),
                     draw(st.sampled_from([None, "gold"])))
        flows.append(flow)
        steps.append(("start", flow, now))
        for _ in range(draw(st.integers(0, 3))):
            for f in flows:
                f.rate = draw(floats)
                f.progressed = draw(floats)
            steps.append(("update", list(flows), now))
            now += draw(st.sampled_from([0.0, 1e-9, 2.0]))
        if draw(st.booleans()):
            done = flows.pop(0)
            steps.append(("end", done, now))
            if draw(st.booleans()):
                steps.append(("bind", done, draw(st.one_of(
                    st.sampled_from([0, 1]), st.integers(0, 2 ** 31 - 1)))))
    return steps


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(span_records(), st.sampled_from([CAT.HTOD, CAT.SYNC]),
       st.sampled_from(["gpu0", "host", "nope"]))
def test_trace_columns_match_a_span_list(records, cat, lane):
    trace, ref = Trace(), ListTrace()
    for rec in records:
        sid = trace.record(**rec)
        ref.record(**rec)
        assert sid == len(ref.spans) - 1
    assert len(trace.spans) == len(ref.spans)
    assert repr(trace.to_dict()) == repr(ref.to_dict())
    for got, want in zip(trace.spans, ref.spans):
        for field in Span.__slots__:
            assert repr(getattr(got, field)) == repr(getattr(want, field))
    assert trace.spans == ref.spans
    cats = [cat, CAT.MCPY, "nope"]
    assert repr(_aggregates(trace, cats, lane)) \
        == repr(ref.aggregates(cats, lane))
    assert list(trace.edges()) == [(d, s.id) for s in ref.spans
                                   for d in s.deps]
    back = Trace.from_dict(trace.to_dict())
    assert repr(back.to_dict()) == repr(ref.to_dict())


@settings(max_examples=150, deadline=None)
@given(ledger_script())
def test_flow_ledger_columns_match_record_dicts(steps):
    ledger, ref = FlowLedger(), ListLedger()
    for what, arg, x in steps:
        for rec in (ledger, ref):
            if what == "start":
                rec.on_start(arg, x)
            elif what == "update":
                rec.on_update(x, arg)
            elif what == "end":
                rec.on_end(arg, x)
            else:
                rec.bind_span(arg, x)
    assert repr(ledger.to_dict()) == repr(ref.to_dict())
    assert repr(ledger.flows) == repr(ref.records)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(floats, floats), max_size=20))
def test_counter_series_columns_match_lists(samples):
    series, ref = CounterSeries("c"), ListSeries()
    for t, value in sorted(samples, key=lambda s: s[0]):
        series.add(t, value)
        ref.add(t, value)
    assert repr(list(series.times)) == repr(ref.times)
    assert repr(list(series.values)) == repr(ref.values)
    assert repr(list(series.samples())) == repr(list(zip(ref.times,
                                                         ref.values)))


@pytest.mark.parametrize("field,values", [
    ("nbytes", [8, 8.0, True, 1, 0.0, -0.0, 0]),
    ("elements", [1, True, 1.0]),
    ("meta", [{"k": 1}, {"k": 1.0}, {"k": True}, {"k": 0.0}, {"k": -0.0}]),
])
def test_equal_but_different_values_are_never_merged(field, values):
    trace, ref = Trace(), ListTrace()
    for value in values + values:
        for rec in (trace, ref):
            rec.record(CAT.HTOD, "a", 0.0, 1.0, **{field: value})
    assert repr(trace.to_dict()) == repr(ref.to_dict())
    assert repr(list(trace.spans)) == repr(ref.spans)


def test_flow_kinds_keep_the_sign_of_a_zero_byte_count():
    link = _Link("pcie", 1e10)
    ledger, ref = FlowLedger(), ListLedger()
    for nbytes in (0.0, -0.0, 0.0, -0.0):
        for rec in (ledger, ref):
            rec.on_start(_Flow("x", nbytes, ((link, 1.0),), math.inf,
                               None), 0.0)
    assert repr(ledger.to_dict()) == repr(ref.to_dict())


# ---------------------------------------------------------------------------
# No object per span
# ---------------------------------------------------------------------------


def _live_spans():
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is Span)


def test_a_timing_run_keeps_no_span_object_until_one_is_read():
    before = _live_spans()
    res = HeterogeneousSorter(PLATFORM1, pinned_elements=200_000).sort(
        n=200_000_000, approach="pipemerge")
    n_spans = len(res.trace.to_dict()["spans"])
    assert n_spans > 1000
    assert len(res.trace.spans) == n_spans
    assert _live_spans() == before
    first = res.trace.spans[0]
    assert _live_spans() == before + n_spans
    assert res.trace.span_by_id(0) is first
    assert res.trace.spans[-1] is res.trace.span_by_id(n_spans - 1)
