"""Tests for the max-min fair flow network, including hypothesis
property tests of conservation and fairness invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.bandwidth import FlowNetwork
from repro.sim.engine import Environment


def start_flow(env, net, links, nbytes, cap=math.inf, delay=0.0, out=None):
    def p():
        yield env.timeout(delay)
        ev = net.transfer(nbytes, links, cap=cap)
        yield ev
        if out is not None:
            out.append(env.now)

    return env.process(p())


def test_single_flow_duration(env):
    net = FlowNetwork(env)
    link = net.add_link("l", 100.0)
    done = []
    start_flow(env, net, [link], 250.0, out=done)
    env.run()
    assert done == [pytest.approx(2.5)]


def test_equal_sharing_two_flows(env):
    net = FlowNetwork(env)
    link = net.add_link("l", 10.0)
    done = []
    start_flow(env, net, [link], 10.0, out=done)
    start_flow(env, net, [link], 10.0, out=done)
    env.run()
    assert done == [pytest.approx(2.0), pytest.approx(2.0)]


def test_flow_cap_limits_rate(env):
    net = FlowNetwork(env)
    link = net.add_link("l", 100.0)
    done = []
    start_flow(env, net, [link], 10.0, cap=2.0, out=done)
    env.run()
    assert done == [pytest.approx(5.0)]


def test_capped_flows_with_headroom_run_at_exactly_their_caps(env):
    """Every flow capped, every link left headroom: each rate is its cap
    bit for bit, not the cap plus the round-off of the fill's lockstep
    deltas (0.3 + (0.9 - 0.3) is 0.9000000000000001)."""
    net = FlowNetwork(env)
    bus = net.add_link("bus", 10.0)
    pcie = net.add_link("pcie", 2.0)
    caps = [0.1, 0.2, 0.3, 0.9]
    for cap in caps:
        net.transfer(1e9, [pcie, (bus, 2.0)], cap=cap)
    assert [f.rate for f in net._flows] == caps
    loads = {lv.name: lv.rate for lv in net.link_snapshot()}
    assert loads["pcie"] < 2.0 and loads["bus"] < 10.0


def test_capped_flow_leaves_headroom_for_others(env):
    net = FlowNetwork(env)
    link = net.add_link("l", 10.0)
    done = []
    # slow: cap 2 B/s, 10 B -> exactly 5 s regardless of the other flow.
    start_flow(env, net, [link], 10.0, cap=2.0, out=done)
    # fast: arrives at t=1, gets 8 B/s -> finishes at t=2.
    start_flow(env, net, [link], 8.0, delay=1.0, out=done)
    env.run()
    assert done == [pytest.approx(2.0), pytest.approx(5.0)]


def test_departure_speeds_up_remaining_flow(env):
    net = FlowNetwork(env)
    link = net.add_link("l", 10.0)
    done = []
    start_flow(env, net, [link], 10.0, out=done)   # shares 5, then solo 10
    start_flow(env, net, [link], 5.0, out=done)    # shares 5 -> done at 1.0
    env.run()
    # flow2 finishes at t=1 (5 B at 5 B/s); flow1 then has 5 B left at
    # 10 B/s -> t=1.5.
    assert done == [pytest.approx(1.0), pytest.approx(1.5)]


def test_multi_link_flow_bottlenecked_by_narrowest(env):
    net = FlowNetwork(env)
    wide = net.add_link("wide", 100.0)
    narrow = net.add_link("narrow", 10.0)
    done = []
    start_flow(env, net, [wide, narrow], 50.0, out=done)
    env.run()
    assert done == [pytest.approx(5.0)]


def test_weighted_link_consumption(env):
    """A weight-2 flow drains a link twice as fast as its payload."""
    net = FlowNetwork(env)
    link = net.add_link("l", 10.0)
    done = []

    def p():
        ev = net.transfer(10.0, [(link, 2.0)])
        yield ev
        done.append(env.now)

    env.process(p())
    env.run()
    # payload rate = capacity / weight = 5 B/s -> 2 s for 10 B.
    assert done == [pytest.approx(2.0)]


def test_two_links_with_crossing_flows(env):
    """Flow A uses links 1+2, flow B only link 2: B gets the leftovers of
    link 2 after max-min sharing."""
    net = FlowNetwork(env)
    l1 = net.add_link("l1", 4.0)
    l2 = net.add_link("l2", 10.0)
    done = []
    start_flow(env, net, [l1, l2], 8.0, out=done)    # capped by l1 at 4
    start_flow(env, net, [l2], 12.0, out=done)       # gets 10 - 4 = 6
    env.run()
    assert done == [pytest.approx(2.0), pytest.approx(2.0)]


def test_zero_byte_transfer_completes_immediately(env):
    net = FlowNetwork(env)
    link = net.add_link("l", 10.0)
    ev = net.transfer(0.0, [link])
    assert ev.triggered


def test_flow_without_link_needs_cap(env):
    net = FlowNetwork(env)
    with pytest.raises(SimulationError):
        net.transfer(10.0, [])


def test_pure_cap_flow_without_links(env):
    net = FlowNetwork(env)
    done = []

    def p():
        ev = net.transfer(10.0, [], cap=5.0)
        yield ev
        done.append(env.now)

    env.process(p())
    env.run()
    assert done == [pytest.approx(2.0)]


def test_foreign_link_rejected(env):
    net1 = FlowNetwork(env)
    net2 = FlowNetwork(env)
    link = net2.add_link("l", 10.0)
    with pytest.raises(SimulationError):
        net1.transfer(1.0, [link])


def test_negative_bytes_rejected(env):
    net = FlowNetwork(env)
    link = net.add_link("l", 10.0)
    with pytest.raises(SimulationError):
        net.transfer(-1.0, [link])


def test_large_scale_no_epsilon_spiral():
    """Regression: at large simulated times, float round-off used to
    strand a few bytes per flow and spin the network through endless
    zero-length wakeups (seen at n = 5e9, t ~ 30 s)."""
    env = Environment()
    net = FlowNetwork(env)
    link = net.add_link("l", 11e9)
    done = []

    def p():
        for _ in range(2000):
            yield net.transfer(8e6, [link], cap=9e9)
        done.append(env.now)

    env.process(p())
    env.run()
    assert done and done[0] == pytest.approx(2000 * 8e6 / 9e9, rel=1e-6)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

flow_lists = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=1e4),      # nbytes
        st.floats(min_value=0.1, max_value=1e3),      # cap
        st.floats(min_value=0.0, max_value=5.0),      # start delay
    ),
    min_size=1, max_size=12,
)


@given(flows=flow_lists,
       capacity=st.floats(min_value=1.0, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_conservation_and_completion(flows, capacity):
    """Every flow completes, and the makespan respects both the aggregate
    capacity bound and each flow's own cap bound."""
    env = Environment()
    net = FlowNetwork(env)
    link = net.add_link("l", capacity)
    finished = []

    def p(nbytes, cap, delay):
        yield env.timeout(delay)
        t0 = env.now
        yield net.transfer(nbytes, [link], cap=cap)
        finished.append((nbytes, cap, t0, env.now))

    for nbytes, cap, delay in flows:
        env.process(p(nbytes, cap, delay))
    env.run()

    assert len(finished) == len(flows)
    total_bytes = sum(f[0] for f in flows)
    first_start = min(f[2] for f in finished)
    last_end = max(f[3] for f in finished)
    # Aggregate work cannot beat link capacity.
    assert last_end - first_start >= total_bytes / capacity - 1e-6
    for nbytes, cap, t0, t1 in finished:
        # No flow can beat its own cap (tolerate the completion epsilon).
        assert t1 - t0 >= nbytes / min(cap, capacity) - 1e-6


@given(n_flows=st.integers(min_value=1, max_value=10),
       capacity=st.floats(min_value=1.0, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_identical_flows_finish_together(n_flows, capacity):
    """Symmetric flows starting together must finish at the same instant
    (max-min fairness gives them identical rates throughout)."""
    env = Environment()
    net = FlowNetwork(env)
    link = net.add_link("l", capacity)
    ends = []

    def p():
        yield net.transfer(100.0, [link])
        ends.append(env.now)

    for _ in range(n_flows):
        env.process(p())
    env.run()
    assert len(set(round(e, 9) for e in ends)) == 1
    assert ends[0] == pytest.approx(100.0 * n_flows / capacity)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("nbytes, links, cap", [
    (_NAN, "l", _INF),            # used to join, then fail the reschedule
    (_INF, "l", _INF),
    (-1.0, "l", _INF),
    (10.0, "l", _NAN),            # used to be accepted and complete
    (10.0, "l", 0.0),
    (10.0, ("l", _NAN), _INF),    # ditto
    (10.0, ("l", _INF), _INF),
    (10.0, ("l", 0.0), _INF),
])
def test_transfer_validates_before_any_state_changes(env, nbytes, links,
                                                      cap):
    from repro.obs.flows import FlowLedger
    net = FlowNetwork(env)
    link = net.add_link("l", 10.0)
    net.ledger = FlowLedger(clock=lambda: env.now, capacities={"l": 10.0})
    first = net.transfer(5.0, [link])
    entry = link if links == "l" else (link, links[1])
    before = (net.active_flows, net.ledger.to_dict(), net._last_update,
              link._nflows, dict(net._shapes))
    with pytest.raises(SimulationError):
        net.transfer(nbytes, [entry], cap=cap)
    assert (net.active_flows, net.ledger.to_dict(), net._last_update,
            link._nflows, dict(net._shapes)) == before
    env.run()
    assert first.processed and env.now == 0.5 and net.active_flows == 0
