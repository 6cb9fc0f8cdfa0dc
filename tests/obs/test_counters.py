"""Tests for live counter series and the recorder plumbing."""

import pytest

from repro.obs.counters import CounterSeries, MetricsRecorder
from repro.sim.engine import Environment
from repro.sim.resources import Resource, Store


def test_series_basics():
    s = CounterSeries("q", unit="items")
    s.add(0.0, 1)
    s.add(1.0, 3)
    s.add(2.0, 0)
    assert len(s) == 3
    assert s.last == 0
    assert s.max() == 3
    assert s.min() == 0
    # Held 1 for 1s, 3 for 1s, 0 until t_end=4 (2s): mean = (1+3+0)/4.
    assert s.time_weighted_mean(4.0) == pytest.approx(1.0)


def test_series_same_instant_keeps_latest():
    s = CounterSeries("g")
    s.add(1.0, 5)
    s.add(1.0, 7)
    assert len(s) == 1
    assert s.last == 7


def test_series_rejects_time_travel():
    s = CounterSeries("g")
    s.add(2.0, 1)
    with pytest.raises(ValueError):
        s.add(1.0, 1)


def test_recorder_incr_accumulates():
    now = {"t": 0.0}
    rec = MetricsRecorder(clock=lambda: now["t"])
    rec.incr("done")
    now["t"] = 1.0
    rec.incr("done", 2)
    series = rec.series["done"]
    assert list(series.samples()) == [(0.0, 1.0), (1.0, 3.0)]
    summary = rec.summary(2.0)
    assert summary["done"]["last"] == 3.0
    assert summary["done"]["samples"] == 2


def test_resource_probe_samples_on_state_changes():
    env = Environment()
    rec = MetricsRecorder(clock=lambda: env.now)
    res = Resource(env, capacity=2, name="cores")
    res.probe = rec.probe("cores.in_use", lambda r: r.in_use)

    def task(delay):
        yield res.request(1)
        yield env.timeout(delay)
        res.release(1)

    env.process(task(1.0))
    env.process(task(2.0))
    env.run()
    series = rec.series["cores.in_use"]
    assert series.max() == 2
    assert series.last == 0
    # Integral of in_use over time: one unit for 1 s plus one for 2 s.
    assert series.time_weighted_mean(env.now) * env.now == pytest.approx(
        3.0)


def test_store_probe_tracks_depth():
    env = Environment()
    now = {"t": 0.0}
    rec = MetricsRecorder(clock=lambda: now["t"])
    store = Store(env, name="q")
    store.probe = rec.probe("q.depth", lambda s: len(s))
    store.put("a")
    now["t"] = 1.0
    store.put("b")
    now["t"] = 2.0
    ok, _ = store.try_get()
    assert ok
    series = rec.series["q.depth"]
    assert series.last == 1
    assert series.max() == 2


def test_environment_monitor_hook():
    env = Environment()
    ticks = []
    env.add_monitor(lambda e: ticks.append(e.now))

    def proc():
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(proc())
    env.run()
    assert ticks  # called on every processed event
    assert ticks == sorted(ticks)
    assert ticks[-1] == pytest.approx(3.0)
    env.remove_monitor(env._monitors[0])
    assert not env._monitors


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_series_rejects_a_non_finite_time(bad):
    s = CounterSeries("g")
    s.add(1.0, 1)
    with pytest.raises(ValueError, match="non-finite"):
        s.add(bad, 2)
    with pytest.raises(ValueError):
        s.add(0.5, 3)       # still ordered after the rejected sample
    assert list(s.times) == [1.0] and list(s.values) == [1.0]


def test_gauge_records_what_sample_records_in_first_sample_order():
    class Bus:
        def __init__(self):
            self.events = []

        def emit(self, kind, /, **data):
            self.events.append((kind, data))

    now = [0.0]
    by_gauge = MetricsRecorder(clock=lambda: now[0])
    by_sample = MetricsRecorder(clock=lambda: now[0])
    by_gauge.bus, by_sample.bus = Bus(), Bus()
    late = by_gauge.gauge("late", unit="B")   # made first, sampled last
    early = by_gauge.gauge("early")
    for t, name, value in [(0.0, "early", 1), (0.5, "early", 2.5),
                           (0.5, "late", True), (1.0, "early", 0),
                           (1.0, "late", 3)]:
        now[0] = t
        (early if name == "early" else late)(value)
        by_sample.sample(name, value,
                         unit="B" if name == "late" else "")
    assert list(by_gauge.series) == list(by_sample.series) == ["early",
                                                                "late"]
    for name, series in by_gauge.series.items():
        ref = by_sample.series[name]
        assert series.unit == ref.unit
        assert repr(list(series.samples())) == repr(list(ref.samples()))
    assert by_gauge.bus.events == by_sample.bus.events
