"""Golden-output tests for ``repro.reporting.series`` and
``repro.reporting.table``: exact rendered text, pinned byte for byte,
including the empty-series and single-point edge cases."""

import pytest

from repro.reporting import (FigureSeries, crossover, format_count,
                             format_seconds, render_metrics_table,
                             render_table, sparkline)

# ---------------------------------------------------------------------------
# sparkline
# ---------------------------------------------------------------------------


def test_sparkline_golden():
    assert sparkline([0, 1, 2, 3, 4, 5, 6, 7]) == "▁▂▃▄▅▆▇█"
    assert sparkline([1.0, 1.0, 1.4, 1.4]) == "▁▁██"


def test_sparkline_empty_series():
    assert sparkline([]) == ""


def test_sparkline_single_point_and_flat():
    assert sparkline([3.0]) == "▅"             # middle level
    assert sparkline([2.0, 2.0, 2.0]) == "▅▅▅"  # zero range


def test_sparkline_marks_changepoints():
    assert sparkline([1.0] * 4 + [1.4] * 3, marks=[4]) == "▁▁▁▁|██"
    # a mark wins over the value at its index
    assert sparkline([1.0, 9.0], marks=[1]) == "▁|"


# ---------------------------------------------------------------------------
# FigureSeries
# ---------------------------------------------------------------------------


def test_figure_series_golden():
    s = FigureSeries("sort")
    s.add(1e6, 0.5)
    s.add(2e6, 1.0)
    assert s.rows() == [(1e6, 0.5), (2e6, 1.0)]
    assert s.at(2e6) == 1.0
    with pytest.raises(KeyError):
        s.at(3e6)
    with pytest.raises(ValueError):
        s.add(0.0, 1.0)                      # x must be non-decreasing


def test_figure_series_empty_and_single_point():
    empty = FigureSeries("e")
    assert empty.rows() == []
    single = FigureSeries("s")
    single.add(1.0, 2.0)
    assert single.rows() == [(1.0, 2.0)]
    assert single.at(1.0) == 2.0


def test_crossover_grid_tie():
    base = FigureSeries("cpu")
    cand = FigureSeries("gpu")
    for x, yb, yc in [(1.0, 2.0, 4.0), (2.0, 4.0, 4.0),
                      (3.0, 8.0, 4.0)]:
        base.add(x, yb)
        cand.add(x, yc)
    assert crossover(base, cand) == 2.0      # exact grid-point tie
    flat = FigureSeries("f")
    flat.add(1.0, 0.0)
    assert crossover(flat, flat) is None


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_render_table_golden():
    got = render_table(["n", "time"], [[1, 2.5], [10, 3.25]],
                       title="t")
    assert got == ("t\n"
                   " n  time\n"
                   "--  ----\n"
                   " 1   2.5\n"
                   "10  3.25")


def test_render_table_empty_rows():
    got = render_table(["a", "bb"], [])
    assert got == ("a  bb\n"
                   "-  --")


def test_render_table_single_row_left_aligned():
    got = render_table(["name", "v"], [["x", 1]], align_right=False)
    assert got == ("name  v\n"
                   "----  -\n"
                   "x     1")


def test_format_seconds_scales():
    assert format_seconds(123.4) == "123.4 s"
    assert format_seconds(1.5) == "1.500 s"
    assert format_seconds(0.0123) == "12.300 ms"
    assert format_seconds(5e-6) == "5.0 us"


def test_format_count_scales():
    assert format_count(1.5e9) == "1.5e+09"
    assert format_count(1234) == "1,234"
    assert format_count(12.5) == "12.500"


def test_render_metrics_table_minimal_golden():
    got = render_metrics_table({"makespan_s": 1.0, "elapsed_s": 1.5})
    assert got == (
        "run metrics\n"
        "metric                       value  \n"
        "---------------------------  -------\n"
        "makespan                     1.000 s\n"
        "elapsed (end-to-end)         1.500 s\n"
        "critical path (lower bound)  0.0 us \n"
        "overlap efficiency           1.000  \n"
        "stretch over critical path   1.000  \n"
        "related-work end-to-end      0.0 us \n"
        "missing overhead             0.0 us ")


def test_render_metrics_table_sections_appear():
    got = render_metrics_table({
        "makespan_s": 1.0,
        "lanes": {"": {"busy_s": 0.5, "idle_s": 0.5,
                       "utilization": 0.5, "bubbles": 0,
                       "bubble_s": 0.0}},
        "links": {"h2d": {"bytes": 8e9, "busy_s": 1.0,
                          "bytes_per_s": 8e9}},
    })
    assert "per-lane utilization" in got
    assert "(main)" in got
    assert "8.00 GB/s" in got
