"""Tests for trace diffing and the regression-gate verdict logic."""

import pytest

from repro.hetsort import HeterogeneousSorter
from repro.hw.platforms import PLATFORM1
from repro.obs.diff import (check_regression, diff_reports, load_report,
                            render_diff, report_from_trace, run_report,
                            write_report)
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


# ---------------------------------------------------------------------------
# Gate verdicts
# ---------------------------------------------------------------------------


def test_check_regression_ok_on_identical():
    rep = run_report(small_run())
    verdict = check_regression(rep, rep)
    assert verdict["ok"] and not verdict["failures"]


def test_check_regression_fails_on_slowdown():
    res = small_run()
    base = run_report(res)
    cur = report_from_trace(scaled_trace(res.trace, 1.2))
    verdict = check_regression(cur, base, tolerance=0.02)
    assert not verdict["ok"]
    assert any("regressed" in f for f in verdict["failures"])


def test_check_regression_fails_on_structure():
    res = small_run()
    base = run_report(res)
    t = scaled_trace(res.trace, 1.0)
    _, t1 = t.window()
    t.record(CAT.SYNC, "extra", t1, t1, lane="host")
    verdict = check_regression(report_from_trace(t), base)
    assert not verdict["ok"]
    assert any("structure" in f for f in verdict["failures"])
