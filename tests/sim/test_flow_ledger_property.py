"""Hypothesis battery for the flow ledger on random workloads: under
arbitrary flow join/leave and mid-run ``set_capacity`` sequences, the
sum of granted rates on every link never exceeds the capacity in
effect, and every flow's recorded rate timeline integrates to its
bytes transferred *bit for bit*."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flows import (FlowLedger, attribute_contention,
                             link_timelines, link_utilization,
                             verify_contention, verify_rate_integral)
from repro.sim.bandwidth import FlowNetwork
from repro.sim.engine import Environment

flow_specs = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=1e4),          # nbytes
        st.sampled_from([(0,), (1,), (0, 1)]),            # link subset
        st.floats(min_value=1.0, max_value=2.0),          # weight
        st.floats(min_value=0.0, max_value=3.0),          # start delay
    ),
    min_size=1, max_size=10)

capacity_changes = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=4.0),          # at time
        st.integers(min_value=0, max_value=1),            # link index
        st.floats(min_value=2.0, max_value=400.0),        # new capacity
    ),
    max_size=3)


def _run(flows, caps, changes):
    env = Environment()
    net = FlowNetwork(env)
    names = ("l0", "l1")
    links = [net.add_link(n, c) for n, c in zip(names, caps)]
    net.ledger = FlowLedger(clock=lambda: env.now,
                            capacities=dict(zip(names, caps)))

    def p(nbytes, subset, weight, delay):
        yield env.timeout(delay)
        yield net.transfer(nbytes, [(links[i], weight) for i in subset])

    def chaos(at, idx, cap):
        yield env.timeout(at)
        net.set_capacity(links[idx], cap)

    for spec in flows:
        env.process(p(*spec))
    for change in changes:
        env.process(chaos(*change))
    env.run()
    assert net.active_flows == 0
    return net.ledger.to_dict()


@given(flows=flow_specs,
       cap0=st.floats(min_value=5.0, max_value=500.0),
       cap1=st.floats(min_value=5.0, max_value=500.0),
       changes=capacity_changes)
@settings(max_examples=60, deadline=None)
def test_granted_rates_never_exceed_capacity(flows, cap0, cap1, changes):
    doc = _run(flows, (cap0, cap1), changes)
    # capacity in effect at time t, from the ledgered change events
    for name, start_cap in (("l0", cap0), ("l1", cap1)):
        evs = sorted((t, c) for t, n, c in doc["capacity_events"]
                     if n == name)
        for t, load in link_timelines(doc)[name]:
            cap = start_cap
            for et, ec in evs:
                if et <= t:
                    cap = ec
            assert load <= cap * (1 + 1e-9)
    for name, series in link_utilization(doc).items():
        assert all(u <= 1 + 1e-9 for _, u in series)


@given(flows=flow_specs,
       cap0=st.floats(min_value=5.0, max_value=500.0),
       cap1=st.floats(min_value=5.0, max_value=500.0),
       changes=capacity_changes)
@settings(max_examples=60, deadline=None)
def test_rate_integral_equals_bytes_bitwise(flows, cap0, cap1, changes):
    doc = _run(flows, (cap0, cap1), changes)
    verdict = verify_rate_integral(doc)
    assert verdict["ok"], verdict["failures"]
    assert verdict["checked"] == len(flows)
    # ...and the bit-exact moved totals land on the requested bytes
    # (ledger order is join order, so compare as sorted multisets)
    assert sorted(f["moved"] for f in doc["flows"]) == pytest.approx(
        sorted(nbytes for nbytes, *_rest in flows), abs=1e-5)
    contention = attribute_contention(doc)
    assert verify_contention(contention)["ok"]


# ---------------------------------------------------------------------------
# The read-only snapshot views
# ---------------------------------------------------------------------------

def test_flow_and_link_snapshots():
    env = Environment()
    net = FlowNetwork(env)
    l0 = net.add_link("l0", 10.0)
    l1 = net.add_link("l1", 40.0)
    seen = {}

    def p():
        yield net.transfer(50.0, [(l0, 1.0), (l1, 2.0)], label="t")

    def peek():
        yield env.timeout(1.0)
        seen["flows"] = net.flow_snapshot()
        seen["links"] = net.link_snapshot()

    env.process(p())
    env.process(peek())
    env.run()

    (fv,) = seen["flows"]
    assert fv.label == "t" and fv.nbytes == 50.0
    assert fv.links == (("l0", 1.0), ("l1", 2.0))
    assert fv.rate == 10.0            # l0 is the bottleneck
    assert fv.progressed == pytest.approx(10.0)
    assert fv.remaining == pytest.approx(40.0)
    assert fv.start_time == 0.0

    views = {lv.name: lv for lv in seen["links"]}
    assert views["l0"].capacity == 10.0
    assert views["l0"].n_flows == 1
    assert views["l0"].utilization == pytest.approx(1.0)
    # weight 2 on l1: the flow consumes 20 of its 40 B/s
    assert views["l1"].rate == pytest.approx(20.0)
    assert views["l1"].utilization == pytest.approx(0.5)

    # drained network -> empty/idle views
    assert net.flow_snapshot() == ()
    assert all(lv.n_flows == 0 and lv.rate == 0.0
               for lv in net.link_snapshot())


def test_link_snapshot_counts_a_flow_once_per_distinct_link():
    env = Environment()
    net = FlowNetwork(env)
    a = net.add_link("a", 10.0)
    net.transfer(1e9, [a, a], cap=2.5)
    (lv,) = net.link_snapshot()
    assert lv.n_flows == 1
    # the rate still sums both weighted entries of the route
    assert lv.rate == pytest.approx(5.0)


def test_snapshots_are_read_only_tuples():
    env = Environment()
    net = FlowNetwork(env)
    net.add_link("l", 10.0)
    assert isinstance(net.link_snapshot(), tuple)
    with pytest.raises(AttributeError):
        net.link_snapshot()[0].capacity = 5.0
