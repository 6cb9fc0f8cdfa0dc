"""AdaptiveController unit battery: validation, epoch mechanics, the
loan-not-sale property, and the service.* event stream contract."""

import math

import pytest

from repro.errors import SimulationError
from repro.obs.events import Sink
from repro.obs.sinks import validate_events
from repro.service import (AdaptiveController, ServiceConfig, Tenant,
                           run_service)
from repro.sim.allocators import FairShare, FixedLevels
from repro.sim.bandwidth import FlowNetwork
from repro.sim.engine import Environment


def _harness(levels={1: 0.6, 0: 0.4}, **kw):
    env = Environment()
    net = FlowNetwork(env)
    link = net.add_link("bus", 100.0)
    pol = FixedLevels(levels)
    net.set_policy(link, pol)
    return env, net, link, pol


def test_controller_validation():
    env, net, link, pol = _harness()
    for epoch_s in (0.0, math.nan):
        with pytest.raises(SimulationError, match="epoch_s must be > 0"):
            AdaptiveController(env, net, [(link, pol)], demand_fn=set,
                               epoch_s=epoch_s)
    with pytest.raises(SimulationError):
        AdaptiveController(env, net, [(link, pol)], demand_fn=set,
                           reclaim=1.0)
    with pytest.raises(SimulationError):
        AdaptiveController(env, net, [(link, FairShare())],
                           demand_fn=set)


def test_idle_levels_are_loaned_and_restored():
    """Class 0 idle -> its level shrinks to base*(1-reclaim) and class 1
    absorbs the loan; class 0 backlogged again -> base levels return."""
    env, net, link, pol = _harness()
    demand = {"classes": {0, 1}}
    ctl = AdaptiveController(env, net, [(link, pol)],
                             demand_fn=lambda: demand["classes"],
                             epoch_s=0.1, reclaim=0.9)
    ctl.start()

    def driver():
        yield env.timeout(0.15)          # epoch 0: both backlogged
        assert pol.levels == {1: 0.6, 0: 0.4}
        demand["classes"] = {1}
        yield env.timeout(0.1)           # epoch 1: class 0 idle
        assert pol.levels[0] == pytest.approx(0.04)
        assert pol.levels[1] == pytest.approx(0.96)
        demand["classes"] = {0, 1}
        yield env.timeout(0.1)           # epoch 2: restored
        assert pol.levels == {1: 0.6, 0: 0.4}

    env.run(env.process(driver(), name="driver"))
    assert [e["changed"] for e in ctl.epochs] == [False, True, True]
    reclaiming = [e for e in ctl.epochs if e["idle"] and e["backlogged"]]
    assert len(reclaiming) == 1
    assert reclaiming[0]["reclaimed_fraction"] == pytest.approx(0.9)
    summary = ctl.summary()
    assert summary["epochs_reclaiming"] == 1
    assert summary["mean_reclaimed_fraction"] == pytest.approx(0.9)


def test_all_idle_changes_nothing():
    """No backlogged class -> nothing to loan to; levels stay at base."""
    env, net, link, pol = _harness()
    ctl = AdaptiveController(env, net, [(link, pol)],
                             demand_fn=lambda: set(), epoch_s=0.1)
    ctl.start()

    def driver():
        yield env.timeout(0.35)

    env.run(env.process(driver(), name="driver"))
    assert pol.levels == {1: 0.6, 0: 0.4}
    assert all(not e["changed"] for e in ctl.epochs)


class CollectSink(Sink):
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def test_service_event_stream_contract():
    """run.start first, run.end last, one submit/start/end triple per
    job in a valid repro.events/v1 stream, plus service.epoch events
    when the controller runs."""
    tenants = (Tenant("a", priority=1, rate_hz=30.0, n_jobs=2,
                      n_elements=50_000),
               Tenant("b", priority=0, rate_hz=30.0, n_jobs=2,
                      n_elements=50_000))
    sink = CollectSink()
    run_service(tenants, ServiceConfig(allocator="fixed-levels",
                                       functional=False, seed=2,
                                       batch_size=20_000,
                                       pinned_elements=5_000),
                sinks=(sink,))
    summary = validate_events(sink.events)
    counts = summary["counts"]
    assert counts["run.start"] == 1 and counts["run.end"] == 1
    assert counts["service.job.submit"] == 4
    assert counts["service.job.start"] == 4
    assert counts["service.job.end"] == 4
    assert counts["service.epoch"] >= 1
    # Per-job causality: submit precedes start precedes end.
    seq = {}
    for ev in sink.events:
        if ev.kind.startswith("service.job."):
            job = ev.data["job"]
            seq.setdefault(job, []).append(ev.kind.rsplit(".", 1)[1])
    assert all(v == ["submit", "start", "end"] for v in seq.values())
