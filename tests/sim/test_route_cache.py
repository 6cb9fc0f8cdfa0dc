"""The flow network validates each distinct route once and caches it.

The cache must be invisible: the form a link list is passed in, an
earlier valid route, another network's cache or a mid-run capacity
change must not change what a transfer does, records or rejects.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.obs import FlowLedger, canonical_json
from repro.sim.bandwidth import FlowNetwork
from repro.sim.engine import Environment
from repro.sim.events import Event


def _network():
    env = Environment()
    net = FlowNetwork(env)
    bus = net.add_link("bus", 10.0)
    pcie = net.add_link("pcie", 6.0)
    net.ledger = FlowLedger(clock=lambda: env.now,
                            capacities={"bus": 10.0, "pcie": 6.0})
    return env, net, bus, pcie


def _run(form):
    """Three overlapping copies over ``[pcie, (bus, 2.0)]`` and one over
    the bus alone, with the link lists built by ``form``."""
    env, net, bus, pcie = _network()
    done = []

    def copier(delay, nbytes, entries, cap):
        yield env.timeout(delay)
        flow = yield net.transfer(nbytes, form(entries), cap=cap)
        done.append((env.now, flow.rate,
                     [(link.name, weight) for link, weight in flow.links]))

    dma = [pcie, (bus, 2.0)]
    env.process(copier(0.0, 12.0, dma, 4.0))
    env.process(copier(0.5, 6.0, dma, 3.0))
    env.process(copier(0.5, 5.0, [bus], math.inf))
    env.process(copier(1.0, 12.0, dma, 4.0))
    env.run()
    return done, canonical_json(net.ledger.to_dict())


def test_list_tuple_and_one_shot_generator_give_identical_flows():
    want = _run(list)
    assert _run(tuple) == want
    assert _run(lambda entries: (e for e in entries)) == want


def test_equal_routes_share_one_validated_route():
    env, net, bus, pcie = _network()
    a = net.transfer(0.0, [pcie, (bus, 2.0)]).value
    b = net.transfer(0.0, ((pcie, 1.0), (bus, 2)), cap=1.0).value
    assert a.links == b.links == ((pcie, 1.0), (bus, 2.0))
    assert a.route is b.route
    assert a.route.distinct == (pcie, bus)


@pytest.mark.parametrize("entries, cap", [
    ("foreign", math.inf),
    ("nan-weight", math.inf),
    ("zero-weight", math.inf),
    ("empty", math.inf),
    ("valid", math.nan),
    ("valid", 0.0),
])
def test_invalid_input_still_raises_after_a_valid_route_is_cached(entries,
                                                                  cap):
    env, net, bus, pcie = _network()
    stranger = FlowNetwork(env).add_link("stranger", 1.0)
    valid = (pcie, (bus, 2.0))
    first = net.transfer(6.0, valid, cap=4.0)
    net.transfer(1.0, (), cap=1.0)              # a cached empty route
    bad = {"foreign": (pcie, stranger),
           "nan-weight": (pcie, (bus, math.nan)),
           "zero-weight": (pcie, (bus, 0.0)),
           "empty": (),
           "valid": valid}[entries]
    before = (net.active_flows, canonical_json(net.ledger.to_dict()),
              bus._nflows, pcie._nflows, dict(net._shapes))
    with pytest.raises(SimulationError):
        net.transfer(6.0, bad, cap=cap)
    assert (net.active_flows, canonical_json(net.ledger.to_dict()),
            bus._nflows, pcie._nflows, dict(net._shapes)) == before
    env.run()
    assert first.processed and net.active_flows == 0


def test_route_caches_are_not_shared_between_networks():
    env = Environment()
    net_a, net_b = FlowNetwork(env), FlowNetwork(env)
    link_a = net_a.add_link("l", 10.0)
    net_b.add_link("l", 10.0)
    route = (link_a,)
    net_a.transfer(5.0, route)
    with pytest.raises(SimulationError, match="not part of this network"):
        net_b.transfer(5.0, route)
    assert net_b.active_flows == 0 and not net_b._routes


def test_set_capacity_mid_run_changes_the_recorded_shape_as_before():
    """Flows on one cached route before, during and after a capacity
    change record the isolation rate of the capacities in effect; the
    restored capacity records the original shape again."""
    env, net, bus, pcie = _network()
    route = (pcie, (bus, 2.0))

    def copier():
        for capacity in (None, 3.0, 3.0, 6.0, None):
            if capacity is not None:
                net.set_capacity(pcie, capacity)
            yield net.transfer(6.0, route, cap=4.0)

    env.process(copier())
    env.run()
    doc = net.ledger.to_dict()
    assert [f["iso_rate"] for f in doc["flows"]] == [4.0, 3.0, 3.0, 4.0,
                                                    4.0]
    assert [f["end"] - f["start"] for f in doc["flows"]] == [1.5, 2.0, 2.0,
                                                            1.5, 1.5]
    assert [e[1:] for e in doc["capacity_events"]] == [
        ["pcie", 3.0], ["pcie", 3.0], ["pcie", 6.0]]
    assert len(net.ledger._shapes) == 2


def _queued(env, event):
    """``(queue name, record)`` of ``event``'s record on the engine."""
    for name in ("_now_urgent", "_now_normal", "_future"):
        for rec in getattr(env, name):
            if rec[3] is event:
                return name, rec
    raise AssertionError(f"{event!r} is not queued")


def _wakeup_matches_schedule(env, net, horizon):
    """The network's wakeup record is the one ``Environment.schedule``
    builds for the same horizon, one seq earlier, on the same queue."""
    name, (when, prio, seq, _ev) = _queued(env, net._wakeup)
    probe = Event(env)
    probe._ok, probe._value = True, None
    env.schedule(probe, horizon)
    ref_name, (ref_when, ref_prio, ref_seq, _) = _queued(env, probe)
    assert (name, when, prio, seq + 1) == (ref_name, ref_when, ref_prio,
                                          ref_seq)
    assert repr(when) == repr(ref_when)
    env.unschedule(probe)
    return name, when


def test_wakeup_is_pushed_as_schedule_would_on_the_heap():
    env = Environment()
    net = FlowNetwork(env)
    link = net.add_link("l", 4.0)
    net.transfer(10.0, (link,))
    assert _wakeup_matches_schedule(env, net, 2.5) == ("_future", 2.5)


def test_wakeup_is_pushed_as_schedule_would_when_it_underflows_to_now():
    env = Environment(initial_time=2.0 ** 60)   # ulp(now) = 256 s
    net = FlowNetwork(env)
    link = net.add_link("l", 1e3)
    net.transfer(1.0, (link,))
    assert _wakeup_matches_schedule(env, net, 1e-3) == ("_now_normal",
                                                        2.0 ** 60)


def test_wakeup_is_pushed_as_schedule_would_for_a_zero_horizon():
    env = Environment()
    net = FlowNetwork(env)
    link = net.add_link("l", 10.0)
    checked = []

    def first():
        yield net.transfer(10.0, (link,))

    def second():
        # At t=1, before the first flow's wakeup fires, the join
        # advances it to zero bytes left: the earliest horizon is 0.
        yield env.timeout(1.0)
        net.transfer(10.0, (link,))
        checked.append(_wakeup_matches_schedule(env, net, 0.0))

    env.process(second())   # its timeout precedes the wakeup at t=1
    env.process(first())
    env.run()
    assert checked == [("_now_normal", 1.0)]
