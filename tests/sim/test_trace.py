"""Tests for span tracing and component aggregation."""

import json
import math

import pytest

from repro.sim.trace import CAT, Trace


def make_trace():
    t = Trace()
    t.record(CAT.HTOD, "h1", 0.0, 1.0, lane="gpu0", nbytes=100)
    t.record(CAT.HTOD, "h2", 2.0, 3.0, lane="gpu0", nbytes=100)
    t.record(CAT.DTOH, "d1", 0.5, 2.5, lane="gpu0", nbytes=200)
    t.record(CAT.GPUSORT, "s1", 1.0, 2.0, lane="gpu0", elements=10)
    t.record(CAT.MCPY, "m1", 0.0, 0.5, lane="host", nbytes=50)
    return t


def test_total_sums_durations():
    t = make_trace()
    assert t.total(CAT.HTOD) == pytest.approx(2.0)
    assert t.total(CAT.DTOH) == pytest.approx(2.0)
    assert t.total("nope") == 0.0


def test_busy_time_collapses_overlap():
    t = Trace()
    t.record(CAT.HTOD, "a", 0.0, 2.0)
    t.record(CAT.HTOD, "b", 1.0, 3.0)   # overlaps a
    t.record(CAT.HTOD, "c", 5.0, 6.0)   # disjoint
    assert t.busy_time([CAT.HTOD]) == pytest.approx(4.0)
    assert t.total(CAT.HTOD) == pytest.approx(5.0)


def test_busy_time_all_categories():
    t = make_trace()
    # Spans cover [0, 3] continuously.
    assert t.busy_time() == pytest.approx(3.0)


def test_busy_time_by_lane():
    t = make_trace()
    assert t.busy_time(lane="host") == pytest.approx(0.5)


def test_breakdown_sorted_descending():
    t = make_trace()
    bd = t.breakdown()
    values = list(bd.values())
    assert values == sorted(values, reverse=True)
    assert set(bd) == {CAT.HTOD, CAT.DTOH, CAT.GPUSORT, CAT.MCPY}


def test_count_and_bytes():
    t = make_trace()
    assert t.count(CAT.HTOD) == 2
    assert t.bytes_moved(CAT.HTOD) == pytest.approx(200)
    assert t.bytes_moved(CAT.DTOH) == pytest.approx(200)


def test_makespan():
    t = make_trace()
    assert t.makespan() == pytest.approx(3.0)
    assert Trace().makespan() == 0.0


def test_lanes_first_seen_order():
    t = make_trace()
    assert t.lanes() == ["gpu0", "host"]


def test_filter():
    t = make_trace()
    assert len(t.filter(category=CAT.HTOD)) == 2
    assert len(t.filter(lane="gpu0")) == 4
    assert len(t.filter(category=CAT.HTOD, lane="host")) == 0


def test_span_duration_and_validation():
    t = Trace()
    s = t.spans[t.record(CAT.SYNC, "x", 1.0, 1.5)]
    assert s.duration == pytest.approx(0.5)
    with pytest.raises(ValueError):
        t.record(CAT.SYNC, "bad", 2.0, 1.0)


def test_related_work_categories():
    assert set(CAT.RELATED_WORK) == {CAT.HTOD, CAT.DTOH, CAT.GPUSORT}
    assert set(CAT.OMITTED) == {CAT.MCPY, CAT.PINNED_ALLOC, CAT.SYNC}


# ---------------------------------------------------------------------------
# Span ids, meta normalization, causal deps
# ---------------------------------------------------------------------------


def test_span_ids_are_recording_order():
    t = make_trace()
    assert [s.id for s in t.spans] == list(range(len(t.spans)))
    assert t.span_by_id(2) is t.spans[2]


def test_meta_mapping_normalized_to_sorted_pairs():
    t = Trace()
    a = t.spans[t.record(CAT.MCPY, "a", 0.0, 1.0,
                         meta={"threads": 4, "k": 2})]
    b = t.spans[t.record(CAT.MCPY, "b", 0.0, 1.0,
                         meta=(("threads", 4), ("k", 2)))]
    assert a.meta == (("k", 2), ("threads", 4))
    assert a.meta == b.meta
    assert a.meta_dict == {"threads": 4, "k": 2}
    assert t.spans[t.record(CAT.MCPY, "c", 0.0, 1.0)].meta == ()


def test_deps_accept_spans_ids_and_none():
    t = Trace()
    a = t.spans[t.record(CAT.HTOD, "a", 0.0, 1.0)]
    b = t.spans[t.record(CAT.GPUSORT, "b", 1.0, 2.0,
                         deps=(a, None, 0, a.id))]
    assert b.deps == (0,)                  # deduplicated, None dropped
    c = t.spans[t.record(CAT.DTOH, "c", 2.0, 3.0, deps=(b, a))]
    assert c.deps == (0, 1)                # sorted


def test_deps_must_reference_recorded_spans():
    t = Trace()
    t.record(CAT.HTOD, "a", 0.0, 1.0)
    with pytest.raises(ValueError):
        t.record(CAT.DTOH, "b", 1.0, 2.0, deps=(7,))
    with pytest.raises(ValueError):        # forward/self reference
        t.record(CAT.DTOH, "b", 1.0, 2.0, deps=(1,))


def test_edges_enumeration():
    t = Trace()
    t.record(CAT.HTOD, "a", 0.0, 1.0)
    t.record(CAT.HTOD, "b", 0.0, 1.0)
    t.record(CAT.GPUSORT, "c", 1.0, 2.0, deps=(0, 1))
    assert list(t.edges()) == [(0, 2), (1, 2)]


def test_to_dict_from_dict_round_trip():
    t = Trace()
    t.record(CAT.HTOD, "a", 0.0, 1.0, lane="gpu0", nbytes=8.0,
             meta={"chunk": 1})
    t.record(CAT.GPUSORT, "b", 1.0, 2.0, lane="gpu0", elements=10,
             deps=(0,))
    doc = t.to_dict()
    back = Trace.from_dict(doc)
    assert back.spans == t.spans
    assert back.to_dict() == doc


@pytest.mark.parametrize("start,end", [
    (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)])
def test_non_finite_times_are_rejected_before_any_state_changes(start, end):
    t = Trace()
    t.record(CAT.HTOD, "a", 0.0, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        t.record(CAT.SYNC, "bad", start, end, lane="new", deps=(0,))
    assert len(t.spans) == 1
    assert t.lanes() == [""] and t.categories() == [CAT.HTOD]
    assert t.makespan() == 1.0
    assert t.record(CAT.SYNC, "ok", 1.0, 2.0) == 1


def test_from_dict_rejects_a_nan_time():
    doc = json.loads('{"spans": [{"id": 0, "category": "HtoD", '
                     '"label": "a", "start": NaN, "end": 1.0}]}')
    with pytest.raises(ValueError, match="non-finite"):
        Trace.from_dict(doc)


def test_record_returns_the_id_and_spans_is_a_read_only_view():
    t = Trace()
    assert t.record(CAT.HTOD, "a", 0.0, 1.0) == 0
    assert t.record(CAT.DTOH, "b", 1.0, 2.0, deps=(0,)) == 1
    view = t.spans
    assert len(view) == 2 and not hasattr(view, "append")
    assert view[1] is t.span_by_id(1) is t.spans[-1]
    assert view[:1] == [t.spans[0]]
    assert list(reversed(view)) == [view[1], view[0]]
    t.record(CAT.SYNC, "c", 2.0, 3.0)
    assert len(view) == 3 and view[2].label == "c"


def test_category_label_and_lane_must_be_strings():
    t = Trace()
    with pytest.raises(TypeError):
        t.record(CAT.HTOD, 7, 0.0, 1.0)
    assert len(t.spans) == 0 and t.categories() == []


@pytest.mark.parametrize("bad", [True, False, 1.7, 1.0, "0"])
def test_deps_reject_bools_and_non_integral_ids_before_any_state_changes(
        bad):
    t = Trace()
    t.record(CAT.HTOD, "a", 0.0, 1.0)
    t.record(CAT.HTOD, "b", 1.0, 2.0)
    before = t.to_dict()
    with pytest.raises(TypeError, match="span id must be an integer"):
        t.record(CAT.SYNC, "bad", 2.0, 3.0, lane="new", deps=[1, bad])
    assert t.to_dict() == before and t.lanes() == [""]
    assert t.record(CAT.SYNC, "ok", 2.0, 3.0, deps=[1]) == 2


def test_deps_accept_numpy_integers_and_spans():
    np = pytest.importorskip("numpy")
    t = Trace()
    a = t.record(CAT.HTOD, "a", 0.0, 1.0)
    b = t.record(CAT.HTOD, "b", 0.0, 1.0)
    c = t.record(CAT.SYNC, "c", 1.0, 2.0,
                 deps=(np.int64(b), np.int32(a), t.spans[a]))
    assert t.spans[c].deps == (0, 1)
    assert type(t.spans[c].deps[0]) is int


def test_a_time_no_float_holds_is_rejected_before_any_state_changes():
    t = Trace()
    t.record(CAT.HTOD, "a", 0.0, 1.0)
    before = t.to_dict()
    with pytest.raises(ValueError, match="no float can hold"):
        t.record(CAT.SYNC, "huge", 0, 10 ** 400, lane="new", deps=(0,))
    assert t.to_dict() == before and t.lanes() == [""]
    assert t.record(CAT.SYNC, "b", 1, 2) == 1
    assert (t.spans[1].label, t.spans[1].start, t.spans[1].end) == ("b", 1, 2)
