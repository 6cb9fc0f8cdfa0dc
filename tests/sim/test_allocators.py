"""Hypothesis battery for the bandwidth-allocator family.

Pins the contracts the multi-tenant service relies on:

- conservation: under every policy mix, no link carries more than its
  capacity and no flow runs a negative rate;
- incremental == full: the PR-6 water-filling equivalence (incremental
  component refill vs from-scratch recompute, exact ``==`` on every
  float) extends to weighted/layered policies;
- FairShare bit-identity: installing an explicit :class:`FairShare`
  policy, or :class:`MaxMinFair` with every share 1.0, is
  indistinguishable -- snapshot for snapshot -- from the no-policy
  network on arbitrary operation sequences;
- work conservation (fair-share / max-min): an oversubscribed link is
  completely used;
- strict-priority starvation ordering: a saturating higher class leaves
  a lower class at *exactly* zero, and leftovers (a capped high class)
  flow down;
- fixed-levels floors and ceilings: a backlogged class receives its
  level fraction exactly -- no more (no spillover), no less (the floor).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.allocators import (ALLOCATORS, FairShare, FixedLevels,
                                  MaxMinFair, QosTag, StrictPriority,
                                  make_allocator)
from repro.sim.bandwidth import FlowNetwork
from repro.sim.engine import Environment

from tests.sim.test_bandwidth_incremental_property import (
    _SUBSETS, _assert_incremental_is_full, _snapshot, op_lists)

_POLICIES = ["none", "fair-share", "max-min", "fixed-levels",
             "strict-priority"]
# Levels sum to 0.9 so the residual class (any unmapped priority) keeps a
# positive fraction -- a lone flow in a zero-fraction class is a genuine
# deadlock and raises (pinned separately below).
_LEVELS = {2: 0.45, 1: 0.3, 0: 0.15}


def _make_policy(name):
    if name == "none":
        return None
    return make_allocator(name, levels=_LEVELS)


def _net(caps, policies=None):
    env = Environment()
    net = FlowNetwork(env)
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(caps)]
    for link, pol in zip(links, policies or []):
        net.set_policy(link, _make_policy(pol))
    return env, net, links


# -- registry ----------------------------------------------------------------

def test_registry_names():
    assert sorted(ALLOCATORS) == ["fair-share", "fixed-levels",
                                  "max-min", "strict-priority"]
    assert isinstance(make_allocator("max-min"), MaxMinFair)
    assert isinstance(make_allocator("fixed-levels", levels={0: 0.5}),
                      FixedLevels)


def test_make_allocator_rejects_unknown():
    with pytest.raises(SimulationError):
        make_allocator("round-robin")


def test_fixed_levels_validation():
    with pytest.raises(SimulationError):
        make_allocator("fixed-levels")          # level map required
    with pytest.raises(SimulationError):
        FixedLevels({})
    with pytest.raises(SimulationError):
        FixedLevels({0: 0.0})
    with pytest.raises(SimulationError):
        FixedLevels({0: 0.7, 1: 0.7})           # sums past 1


def test_qos_tag_defaults():
    tag = QosTag()
    assert (tag.tenant, tag.priority, tag.share) == (None, 0, 1.0)


# -- property: conservation under every policy mix ---------------------------

flow_specs = st.lists(
    st.tuples(
        st.sampled_from(_SUBSETS),                       # link subset
        st.floats(min_value=0.25, max_value=4.0),        # share
        st.integers(min_value=0, max_value=3),           # priority
        st.one_of(st.none(),
                  st.floats(min_value=0.5, max_value=30.0)),  # flow cap
    ),
    min_size=1, max_size=10)


@given(specs=flow_specs,
       policies=st.tuples(*[st.sampled_from(_POLICIES)] * 3),
       caps=st.tuples(*[st.floats(min_value=2.0, max_value=100.0)] * 3))
@settings(max_examples=120, deadline=None)
def test_conservation_under_every_policy_mix(specs, policies, caps):
    _env, net, links = _net(caps, policies)
    for subset, share, priority, cap in specs:
        kw = {} if cap is None else {"cap": cap}
        net.transfer(1e6, [links[i] for i in subset],
                     share=share, priority=priority, **kw)
    loads = {l: 0.0 for l in links}
    for f in net._flows:
        assert f.rate >= 0.0
        if f.cap is not math.inf:
            assert f.rate <= f.cap * (1 + 1e-9)
        for l, w in f.links:
            loads[l] += f.rate * w
    for l in links:
        assert loads[l] <= l.capacity * (1 + 1e-9)


# -- property: incremental == full with QoS policies -------------------------

qos_ops = st.lists(
    st.tuples(
        st.sampled_from(["join", "setcap", "wait"]),
        st.floats(min_value=0.05, max_value=20.0),
        st.sampled_from(_SUBSETS),
        st.floats(min_value=0.25, max_value=4.0),        # share
        st.integers(min_value=0, max_value=3),           # priority
        st.floats(min_value=0.0, max_value=2.0),         # wait dt
    ),
    min_size=1, max_size=14)


@given(ops=qos_ops,
       policies=st.tuples(*[st.sampled_from(_POLICIES)] * 3),
       caps=st.tuples(*[st.floats(min_value=2.0, max_value=200.0)] * 3))
@settings(max_examples=80, deadline=None)
def test_incremental_equals_full_under_policies(ops, policies, caps):
    env, net, links = _net(caps, policies)

    def driver():
        pending = []
        for kind, size, subset, share, priority, dt in ops:
            if kind == "join":
                pending.append(net.transfer(
                    size * 10.0, [links[i] for i in subset],
                    share=share, priority=priority))
            elif kind == "setcap":
                link = links[subset[0]]
                net.set_capacity(link, max(link.capacity * size * 0.1,
                                           1e-3))
            _assert_incremental_is_full(net)
            if dt > 0.0:
                yield env.timeout(dt)
                _assert_incremental_is_full(net)
        for link, cap0 in zip(links, caps):
            net.set_capacity(link, cap0)
            _assert_incremental_is_full(net)
        for ev in pending:
            if ev.callbacks is not None:
                yield ev
            _assert_incremental_is_full(net)

    proc = env.process(driver(), name="driver")
    env.run(proc)
    assert net.active_flows == 0


# -- property: FairShare is bit-identical to no policy at all ----------------

@given(ops=op_lists,
       caps=st.tuples(*[st.floats(min_value=2.0, max_value=200.0)] * 3))
@settings(max_examples=60, deadline=None)
def test_fair_share_policy_is_bit_identical(ops, caps):
    """An explicit FairShare policy, and MaxMinFair with every share
    1.0, are indistinguishable from no policy at all."""
    def run(policy):
        env, net, links = _net(caps, [policy] * 3 if policy else None)
        snaps = []

        def driver():
            pending = []
            for kind, size, subset, weight, cap, dt in ops:
                if kind == "join":
                    kw = {} if cap is None else {"cap": cap}
                    pending.append(net.transfer(
                        size * 10.0,
                        [(links[i], weight) for i in subset], **kw))
                elif kind == "setcap":
                    link = links[subset[0]]
                    net.set_capacity(
                        link, max(link.capacity * size * 0.1, 1e-3))
                snaps.append((env.now, _snapshot(net)))
                if dt > 0.0:
                    yield env.timeout(dt)
            for link, cap0 in zip(links, caps):
                net.set_capacity(link, cap0)
            for ev in pending:
                if ev.callbacks is not None:
                    yield ev
                snaps.append((env.now, _snapshot(net)))

        proc = env.process(driver(), name="driver")
        env.run(proc)
        snaps.append((env.now, _snapshot(net)))
        return snaps

    plain = run(None)
    assert run("fair-share") == plain
    assert run("max-min") == plain


# -- work conservation -------------------------------------------------------

@pytest.mark.parametrize("policy", ["fair-share", "max-min"])
def test_oversubscribed_link_fully_used(policy):
    _env, net, links = _net([10.0], [policy])
    for share in (1.0, 2.0, 0.5):
        net.transfer(1e6, links, share=share)
    assert sum(f.rate for f in net._flows) == pytest.approx(10.0,
                                                            rel=1e-9)


def test_max_min_weighted_split():
    _env, net, links = _net([9.0], ["max-min"])
    net.transfer(1e6, links, share=2.0)
    net.transfer(1e6, links, share=1.0)
    hi, lo = net._flows
    assert hi.rate == pytest.approx(6.0, rel=1e-9)
    assert lo.rate == pytest.approx(3.0, rel=1e-9)


def test_fair_share_ignores_shares():
    _env, net, links = _net([9.0], ["fair-share"])
    net.transfer(1e6, links, share=2.0)
    net.transfer(1e6, links, share=1.0)
    assert [f.rate for f in net._flows] == [4.5, 4.5]


# -- strict priority ---------------------------------------------------------

def test_strict_priority_starves_lower_class_exactly():
    _env, net, links = _net([10.0], ["strict-priority"])
    net.transfer(1e6, links, priority=2)
    net.transfer(1e6, links, priority=1)
    net.transfer(1e6, links, priority=0)
    high, mid, low = net._flows
    assert high.rate == pytest.approx(10.0, rel=1e-9)
    assert mid.rate == 0.0          # exact: frozen before any round
    assert low.rate == 0.0


def test_strict_priority_leftovers_flow_down():
    _env, net, links = _net([10.0], ["strict-priority"])
    net.transfer(1e6, links, priority=2, cap=4.0)
    net.transfer(1e6, links, priority=0)
    net.transfer(1e6, links, priority=0)
    high, lo1, lo2 = net._flows
    assert high.rate == 4.0         # snap-to-cap is exact
    assert lo1.rate == pytest.approx(3.0, rel=1e-9)
    assert lo2.rate == pytest.approx(3.0, rel=1e-9)


@given(n_high=st.integers(1, 4), n_low=st.integers(1, 4),
       cap=st.floats(min_value=1.0, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_strict_priority_starvation_property(n_high, n_low, cap):
    """Any number of uncapped higher-class flows saturates the link;
    every lower-class flow is pinned at exactly 0.0."""
    _env, net, links = _net([cap], ["strict-priority"])
    for _ in range(n_high):
        net.transfer(1e9, links, priority=1)
    for _ in range(n_low):
        net.transfer(1e9, links, priority=0)
    rates = [f.rate for f in net._flows]
    assert sum(rates[:n_high]) == pytest.approx(cap, rel=1e-9)
    assert rates[n_high:] == [0.0] * n_low


# -- fixed levels ------------------------------------------------------------

def test_fixed_levels_floors_and_ceilings():
    _env, net, links = _net([100.0])
    net.set_policy(links[0], FixedLevels({2: 0.5, 0: 0.25}))
    net.transfer(1e9, links, priority=2)
    net.transfer(1e9, links, priority=0)
    net.transfer(1e9, links, priority=7)    # unmapped: residual class
    hi, lo, other = net._flows
    assert hi.rate == pytest.approx(50.0, rel=1e-9)
    assert lo.rate == pytest.approx(25.0, rel=1e-9)
    assert other.rate == pytest.approx(25.0, rel=1e-9)


def test_fixed_levels_no_spillover():
    """The confinement that motivates the adaptive controller: with
    every other class idle, a backlogged class still cannot exceed its
    level."""
    _env, net, links = _net([100.0])
    net.set_policy(links[0], FixedLevels({2: 0.5, 0: 0.25}))
    net.transfer(1e9, links, priority=0)
    (only,) = net._flows
    assert only.rate == pytest.approx(25.0, rel=1e-9)
    assert only.rate < 26.0                 # nowhere near the idle 75%


@given(fracs=st.lists(st.floats(min_value=0.05, max_value=0.4),
                      min_size=2, max_size=4),
       cap=st.floats(min_value=10.0, max_value=1000.0))
@settings(max_examples=60, deadline=None)
def test_fixed_levels_floor_property(fracs, cap):
    """Every mapped, backlogged class receives exactly level * capacity
    (floor AND ceiling) when all classes are backlogged."""
    total = sum(fracs)
    if total > 1.0:
        fracs = [f / total for f in fracs]
    levels = {p: f for p, f in enumerate(fracs)}
    _env, net, links = _net([cap])
    net.set_policy(links[0], FixedLevels(levels))
    for p in levels:
        net.transfer(1e12, links, priority=p)
    for f in net._flows:
        assert f.rate == pytest.approx(levels[f.priority] * cap,
                                       rel=1e-6)


def test_fixed_levels_zero_fraction_class_deadlocks_loudly():
    """A lone flow whose class has no fraction (levels sum to 1, class
    unmapped) can never progress; the network refuses to hang and raises
    instead."""
    _env, net, links = _net([10.0])
    net.set_policy(links[0], FixedLevels({1: 0.6, 0: 0.4}))
    with pytest.raises(SimulationError):
        net.transfer(1e6, links, priority=7)


def test_fixed_levels_controller_rewrite_takes_effect():
    """Rewriting ``levels`` in place + ``reallocate()`` (the adaptive
    controller's move) re-rates in-flight flows immediately."""
    env, net, links = _net([100.0])
    pol = FixedLevels({1: 0.5, 0: 0.5})
    net.set_policy(links[0], pol)

    def driver():
        net.transfer(1e9, links, priority=1)
        (f,) = net._flows
        assert f.rate == pytest.approx(50.0, rel=1e-9)
        yield env.timeout(0.1)
        pol.levels.clear()
        pol.levels.update({1: 0.95, 0: 0.05})
        net.reallocate()
        assert f.rate == pytest.approx(95.0, rel=1e-9)

    env.run(env.process(driver(), name="driver"))
