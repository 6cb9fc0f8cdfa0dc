"""Tests for trace diffing."""

import pytest

from repro.hetsort import HeterogeneousSorter
from repro.hw.platforms import PLATFORM1
from repro.obs.diff import (diff_reports, load_report, render_diff,
                            report_from_trace, run_report, write_report)
from repro.sim.trace import CAT, Trace


def small_run():
    sorter = HeterogeneousSorter(PLATFORM1, approach="pipemerge",
                                 batch_size=250_000,
                                 pinned_elements=50_000)
    return sorter.sort(n=1_000_000)


def scaled_trace(trace, factor, category=None):
    """Re-record a trace with (selected) durations scaled."""
    out = Trace()
    shift = {}
    new_end = {}
    for s in trace.spans:
        if s.deps:
            sh = max(new_end[d] for d in s.deps) \
                - max(trace.spans[d].end for d in s.deps)
        else:
            sh = 0.0
        start = s.start + sh
        k = factor if category in (None, s.category) else 1.0
        end = start + k * s.duration
        out.record(s.category, s.label, start, end, lane=s.lane,
                   nbytes=s.nbytes, elements=s.elements, meta=s.meta,
                   deps=s.deps)
        new_end[s.id] = end
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_run_report_shape():
    rep = run_report(small_run(), label="x")
    assert rep["schema"] == "repro.report/v1"
    assert rep["label"] == "x"
    assert rep["context"]["approach"] == "pipemerge"
    assert rep["makespan_s"] > 0
    assert rep["n_spans"] == sum(rep["span_index"].values())
    assert set(rep["categories"]) >= {CAT.GPUSORT, CAT.MCPY}
    assert rep["critical_path"]["duration"] == rep["makespan_s"]


def test_report_round_trip(tmp_path):
    rep = run_report(small_run())
    path = tmp_path / "report.json"
    write_report(rep, path)
    assert load_report(path) == rep
    # Canonical bytes: rewriting the same report is a no-op.
    first = path.read_bytes()
    write_report(load_report(path), path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("mutate", [
    lambda rep: [rep],
    lambda rep: {**rep, "schema": "repro.flows/v1"},
    lambda rep: {k: v for k, v in rep.items() if k != "makespan_s"},
    lambda rep: {**rep, "elapsed_s": True},
    lambda rep: {**rep, "lanes": {"gpu0": "busy"}},
    lambda rep: {**rep, "critical_path": {"by_category": []}},
])
def test_load_report_rejects_non_reports(tmp_path, mutate):
    from repro.errors import ReportError, ReproError
    path = tmp_path / "report.json"
    write_report(mutate(run_report(small_run())), path)
    with pytest.raises(ReportError) as exc:
        load_report(path)
    assert isinstance(exc.value, ReproError)
    assert str(exc.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


def test_self_diff_is_zero():
    rep = run_report(small_run())
    d = diff_reports(rep, rep)
    assert d["zero"]
    assert not d["regression"]
    assert not d["structural_change"]
    assert d["makespan"]["delta"] == 0.0
    assert "identical" in render_diff(d)


def test_timing_regression_detected():
    res = small_run()
    a = run_report(res, label="before")
    slower = scaled_trace(res.trace, 1.5, category=CAT.GPUSORT)
    b = report_from_trace(slower, label="after")
    d = diff_reports(a, b, tolerance=0.02)
    assert not d["zero"]
    assert d["regression"]
    assert not d["structural_change"]          # same span shapes
    assert d["makespan"]["delta"] > 0
    assert d["categories"][CAT.GPUSORT]["delta"] > 0
    assert d["categories"][CAT.MCPY]["delta"] == 0.0
    text = render_diff(d)
    assert "REGRESSION" in text and CAT.GPUSORT in text


def test_improvement_is_not_regression():
    res = small_run()
    a = run_report(res)
    faster = scaled_trace(res.trace, 0.5, category=CAT.GPUSORT)
    d = diff_reports(a, report_from_trace(faster), tolerance=0.0)
    assert d["makespan"]["delta"] < 0
    assert not d["regression"]


def test_tolerance_absorbs_small_growth():
    res = small_run()
    a = run_report(res)
    slightly = scaled_trace(res.trace, 1.001)
    b = report_from_trace(slightly)
    assert diff_reports(a, b, tolerance=0.05)["regression"] is False
    assert diff_reports(a, b, tolerance=1e-6)["regression"] is True


def test_structural_change_detected():
    res = small_run()
    a = run_report(res)
    t = scaled_trace(res.trace, 1.0)
    t0, t1 = t.window()
    t.record(CAT.SYNC, "extra", t1, t1 + 0.001, lane="host")
    d = diff_reports(a, report_from_trace(t))
    assert d["structural_change"]
    assert f"{CAT.SYNC}|extra|host" in d["spans"]["added"]
    assert not d["zero"]
    assert "added" in render_diff(d)


def test_recount_detected():
    a = {"schema": "repro.report/v1", "label": "a", "makespan_s": 1.0,
         "elapsed_s": 1.0, "categories": {}, "lanes": {},
         "critical_path": {"by_category": {}},
         "span_index": {"HtoD|x|l": 2}}
    b = dict(a, label="b", span_index={"HtoD|x|l": 3})
    d = diff_reports(a, b)
    assert d["spans"]["recounted"] == {"HtoD|x|l": {"a": 2, "b": 3}}
    assert d["structural_change"]

