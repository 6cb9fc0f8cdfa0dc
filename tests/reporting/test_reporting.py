"""Tests for tables, figure series, and the ASCII Gantt renderer."""

import pytest

from repro.reporting import (FigureSeries, crossover, format_count,
                             format_seconds, render_gantt, render_table)
from repro.sim.trace import CAT, Trace

# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_render_table_alignment():
    out = render_table(["n", "time"], [[100, "1.5 s"], [5000, "12 s"]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(len(l) == len(lines[0]) for l in lines[1:])
    assert "5000" in lines[3]


def test_render_table_title():
    out = render_table(["a"], [[1]], title="Figure 9")
    assert out.splitlines()[0] == "Figure 9"


def test_format_seconds_scales():
    assert format_seconds(123.4) == "123.4 s"
    assert format_seconds(1.5) == "1.500 s"
    assert format_seconds(0.0123) == "12.300 ms"
    assert format_seconds(5e-6) == "5.0 us"


def test_format_count():
    assert format_count(5e9) == "5e+09"
    assert format_count(1234) == "1,234"


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_add_and_at():
    s = FigureSeries("bline")
    s.add(1e9, 5.0)
    s.add(2e9, 10.0)
    assert s.at(2e9) == 10.0
    with pytest.raises(KeyError):
        s.at(3e9)


def test_series_x_monotonic():
    s = FigureSeries("x")
    s.add(2.0, 1.0)
    with pytest.raises(ValueError):
        s.add(1.0, 1.0)


def test_crossover_found():
    a = FigureSeries("a")
    b = FigureSeries("b")
    for x, ya, yb in [(0, 0.0, 1.0), (1, 2.0, 1.0)]:
        a.add(x, ya)
        b.add(x, yb)
    assert crossover(a, b) == pytest.approx(0.5)


def test_crossover_none():
    a = FigureSeries("a")
    b = FigureSeries("b")
    for x in (0, 1):
        a.add(x, 1.0)
        b.add(x, 2.0)
    assert crossover(a, b) is None


# ---------------------------------------------------------------------------
# gantt
# ---------------------------------------------------------------------------


def test_gantt_renders_lanes_and_glyphs():
    t = Trace()
    t.record(CAT.HTOD, "h", 0.0, 1.0, lane="gpu0")
    t.record(CAT.MCPY, "m", 1.0, 2.0, lane="host")
    out = render_gantt(t, width=20)
    assert "gpu0" in out and "host" in out
    assert "H" in out and "m" in out


def test_gantt_empty_trace():
    assert render_gantt(Trace()) == "(empty trace)"


def test_gantt_width_respected():
    t = Trace()
    t.record(CAT.GPUSORT, "s", 0.0, 10.0, lane="gpu0")
    out = render_gantt(t, width=30)
    lane_line = [l for l in out.splitlines() if l.startswith("gpu0")][0]
    assert lane_line.count("S") == 30


def test_gantt_critical_overlay():
    from repro.obs.causal import SpanGraph
    t = Trace()
    t.record(CAT.HTOD, "h", 0.0, 1.0, lane="gpu0")
    t.record(CAT.GPUSORT, "s", 2.0, 4.0, lane="gpu0", deps=(0,))
    t.record(CAT.MCPY, "m", 0.0, 1.0, lane="host")
    g = SpanGraph.from_trace(t)
    out = render_gantt(t, width=40, critical=g.critical_path(),
                       slack=g.slack())
    lines = out.splitlines()
    crit = [l for l in lines if l.startswith("*critical*")][0]
    assert "H" in crit and "S" in crit
    assert "~" in crit                      # the 1s wait gap on the path
    gpu = [l for l in lines if l.startswith("gpu0")][0]
    host = [l for l in lines if l.startswith("host")][0]
    assert "crit=100%" in gpu and "slack=0ms" in gpu
    # m could end 3 s later (at t1) without growing the makespan.
    assert "crit=  0%" in host and "slack=3e+03ms" in host
    assert "~=wait(critical)" in lines[-1]


def test_gantt_without_critical_has_no_overlay():
    t = Trace()
    t.record(CAT.HTOD, "h", 0.0, 1.0, lane="gpu0")
    out = render_gantt(t, width=20)
    assert "*critical*" not in out and "crit=" not in out


# ---------------------------------------------------------------------------
# chrome trace export
# ---------------------------------------------------------------------------


def test_chrome_trace_events():
    import json

    from repro.reporting.chrometrace import to_chrome_trace, \
        write_chrome_trace
    t = Trace()
    t.record(CAT.HTOD, "h", 0.0, 1.0, lane="gpu0", nbytes=8.0,
             meta=(("chunk", 3),))
    t.record(CAT.MERGE, "m", 1.0, 3.0, lane="cpu", elements=100)
    events = to_chrome_trace(t)
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == 2
    assert len(metas) == 2                 # one thread_name per lane
    htod = next(e for e in xs if e["cat"] == CAT.HTOD)
    assert htod["ts"] == 0.0 and htod["dur"] == 1e6
    assert htod["args"] == {"bytes": 8.0, "chunk": 3}
    # lanes map to distinct tids
    assert len({e["tid"] for e in xs}) == 2
    assert json.dumps(events)              # serialisable


def test_chrome_trace_flow_events():
    from repro.reporting.chrometrace import to_chrome_trace
    t = Trace()
    t.record(CAT.MCPY, "stage", 0.0, 1.0, lane="host")
    t.record(CAT.HTOD, "htod", 1.0, 2.0, lane="stream0", deps=(0,))
    t.record(CAT.GPUSORT, "sort", 2.0, 3.0, lane="gpu0", deps=(1,))
    events = to_chrome_trace(t)
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == len(finishes) == 2
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    assert all(e["cat"] == "causal" for e in starts + finishes)
    assert all(e["bp"] == "e" for e in finishes)
    # Arrow 0: host lane @ stage.end -> stream0 lane @ htod.start.
    s0 = next(e for e in starts if e["id"] == 0)
    f0 = next(e for e in finishes if e["id"] == 0)
    lanes = {e["args"]["name"]: e["tid"] for e in events
             if e["ph"] == "M"}
    assert s0["tid"] == lanes["host"] and s0["ts"] == 1e6
    assert f0["tid"] == lanes["stream0"] and f0["ts"] == 1e6


def test_chrome_trace_no_deps_no_flows():
    from repro.reporting.chrometrace import to_chrome_trace
    t = Trace()
    t.record(CAT.HTOD, "h", 0.0, 1.0, lane="gpu0")
    assert not [e for e in to_chrome_trace(t) if e["ph"] in ("s", "f")]


def test_chrome_trace_roundtrip_to_file(tmp_path):
    import json

    from repro.reporting.chrometrace import write_chrome_trace
    t = Trace()
    t.record(CAT.GPUSORT, "sort", 0.5, 1.0, lane="gpu0")
    path = tmp_path / "trace.json"
    count = write_chrome_trace(t, str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == count
    assert doc["displayTimeUnit"] == "ms"


# ---------------------------------------------------------------------------
# Live memory bars
# ---------------------------------------------------------------------------

def test_format_bytes_scales_and_signs():
    from repro.reporting import format_bytes
    assert format_bytes(128) == "128 B"
    assert format_bytes(1_600) == "1.6 kB"
    assert format_bytes(6_400_000) == "6.4 MB"
    assert format_bytes(17_179_869_184) == "17.18 GB"
    assert format_bytes(-2_560_000_000) == "-2.56 GB"
    assert format_bytes(0) == "0 B"


def test_render_snapshot_memory_bars():
    from repro.reporting import render_snapshot
    snap = {"run": {"approach": "bline", "platform": "PLATFORM1"},
            "progress": {"batches_completed": 1, "n_batches": 2,
                         "fraction": 0.5},
            "t": 0.01,
            "memory": {"gpu0": {"bytes": 8_000_000,
                                "peak_bytes": 16_000_000,
                                "capacity_bytes": 16_000_000},
                       "pinned": {"bytes": 800_000,
                                  "peak_bytes": 800_000}}}
    text = render_snapshot(snap)
    assert "mem gpu0" in text
    assert "8.0 MB (peak 16.0 MB)" in text
    assert " 50%" in text                  # 8 of 16 MB against capacity
    # unknown capacity renders the indeterminate bar, not a crash
    assert "mem pinned" in text
    assert "?" in text.split("mem pinned")[1].splitlines()[0]


def test_live_aggregator_folds_memory_events():
    from repro.obs import LiveAggregator
    from repro.hetsort import HeterogeneousSorter
    from repro.hw.platforms import PLATFORM1
    agg = LiveAggregator()
    HeterogeneousSorter(PLATFORM1, batch_size=250_000,
                        pinned_elements=50_000).sort(
        n=1_000_000, approach="pipedata", sinks=(agg,))
    snap = agg.snapshot()
    assert set(snap["memory"]) == {"gpu0", "pinned"}
    assert list(snap["memory"])[-1] == "pinned"       # pinned sorts last
    assert snap["memory"]["gpu0"]["peak_bytes"] == 8_000_000
    assert snap["memory"]["gpu0"]["capacity_bytes"] == 17_179_869_184
    assert snap["memory"]["pinned"]["peak_bytes"] == 1_600_000
    assert snap["memory"]["gpu0"]["bytes"] == 0       # all released
