"""The fill cache and the single-component shortcut change no rate.

:meth:`FlowNetwork._update` reuses a component's rates when the same
sequence of flow shapes (cap, weighted links, priority, share) was
filled before under the same capacities and policies, and it skips
component discovery when one link carries every active flow.
:meth:`FlowNetwork._recompute_full` does neither, so after every
operation -- join, leave, ``set_capacity``, ``set_policy``,
``reallocate`` with a QoS rewrite, an in-place level edit, and cache
clears forced by a tiny cache bound -- the cached rates must equal an
uncached fill bit for bit.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import bandwidth
from repro.sim.allocators import FixedLevels, make_allocator
from repro.sim.bandwidth import FlowNetwork
from repro.sim.engine import Environment

from tests.sim.test_allocators import _POLICIES, _make_policy
from tests.sim.test_bandwidth_incremental_property import (
    _SUBSETS, _assert_incremental_is_full)

# Few distinct shapes, so that fills repeat and the cache hits.
ops = st.lists(
    st.tuples(
        st.sampled_from(["join", "join", "join", "wait", "setcap",
                         "policy", "mutate", "levels"]),
        st.sampled_from([1.0, 4.0, 12.0]),
        st.sampled_from(_SUBSETS),
        st.sampled_from([1.0, 2.0]),
        st.sampled_from([None, 3.0, 8.0]),
        st.sampled_from([0, 1, 2]),
        st.sampled_from([0.0, 0.5, 1.5]),
    ),
    min_size=1, max_size=20)


@given(ops=ops, policies=st.tuples(*[st.sampled_from(_POLICIES)] * 3),
       cache_size=st.sampled_from([1, 2, 4096]))
@settings(max_examples=120, deadline=None)
def test_cached_rates_equal_an_uncached_fill(ops, policies, cache_size):
    env = Environment()
    net = FlowNetwork(env)
    caps = (10.0, 20.0, 40.0)
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(caps)]
    for link, name in zip(links, policies):
        net.set_policy(link, _make_policy(name))

    def driver():
        pending = []
        for kind, size, subset, weight, cap, prio, dt in ops:
            link = links[subset[0]]
            if kind == "join":
                kw = {} if cap is None else {"cap": cap}
                pending.append(net.transfer(
                    size * 10.0, [(links[i], weight) for i in subset],
                    priority=prio, share=weight, **kw))
            elif kind == "setcap":
                net.set_capacity(link, caps[subset[0]] * size / 4.0)
            elif kind == "policy":
                net.set_policy(link, _make_policy(_POLICIES[prio + 1]))
            elif kind == "mutate":
                def mutate(f, prio=prio, weight=weight):
                    f.priority = (f.priority + prio) % 3
                    f.share = weight * (1.0 + f.priority)
                net.reallocate(mutate)
            elif kind == "levels":
                # The QoS controller's move: edit levels in place, then
                # reallocate.
                for pol in (l.policy for l in links):
                    if isinstance(pol, FixedLevels):
                        pol.levels[prio] = 0.1 * size / 2.0
                net.reallocate()
            _assert_incremental_is_full(net)
            if dt > 0.0:
                yield env.timeout(dt)
                _assert_incremental_is_full(net)
        for link, cap0 in zip(links, caps):
            net.set_capacity(link, cap0)
            net.set_policy(link, None)
        for ev in pending:
            if ev.callbacks is not None:
                yield ev
            _assert_incremental_is_full(net)

    with mock.patch.object(bandwidth, "_FILL_CACHE_SIZE", cache_size):
        env.run(env.process(driver(), name="driver"))
        assert len(net._fills) <= cache_size
        assert len(net._shapes) <= cache_size
    assert net.active_flows == 0
    assert all(l._nflows == 0 for l in links)


def test_repeated_shapes_hit_the_cache(monkeypatch):
    """A stream of identical copies over a shared link fills once per
    distinct component, not once per join or leave."""
    fill = FlowNetwork._fill
    calls = []

    def counting_fill(flows):
        calls.append(len(flows))
        fill(flows)

    monkeypatch.setattr(FlowNetwork, "_fill", staticmethod(counting_fill))
    env = Environment()
    net = FlowNetwork(env)
    bus = net.add_link("bus", 10.0)
    pcie = net.add_link("pcie", 6.0)

    def copier(i):
        for _ in range(20):
            yield net.transfer(12.0, [pcie, (bus, 2.0)], cap=4.0 + i)

    for i in range(2):
        env.process(copier(i))
    env.run()
    assert net.completed_flows == 40
    assert len(calls) <= 4 and sorted(set(calls)) == [1, 2]


def test_shortcut_keeps_the_other_component_bit_for_bit():
    """Two components: traffic on one refills only that one.  The other
    flow carries a marker rate no fill produces; it must survive joins,
    a capacity change and a departure on the first component."""
    env = Environment()
    net = FlowNetwork(env)
    a = net.add_link("a", 7.0)
    b = net.add_link("b", 3.0)
    # Listed twice, "a" still counts this flow once: counted twice it
    # would seem to carry both flows and pull "b" into the refill.
    net.transfer(1e9, [a, a], cap=2.5)
    other = net.transfer(1e9, [b])
    untouched = net._flows[1]
    assert untouched.rate == 3.0 and a._nflows == b._nflows == 1
    marker = math.nextafter(3.0, 0.0)
    untouched.rate = marker

    def traffic():
        yield net.transfer(7.0, [(a, 1.5)])     # joins, then leaves
        net.set_capacity(a, 8.0)
        net.transfer(1e9, [a], cap=1.0)

    env.run(env.process(traffic()))
    loads = {lv.name: lv.rate for lv in net.link_snapshot()}
    assert untouched.rate == loads["b"] == marker
    assert not other.triggered and a._nflows == 2
    untouched.rate = 3.0
    _assert_incremental_is_full(net)


def test_shortcut_applies_when_one_link_carries_every_flow(monkeypatch):
    env = Environment()
    net = FlowNetwork(env)
    bus = net.add_link("bus", 10.0)
    up, down = net.add_link("up", 4.0), net.add_link("down", 4.0)
    net.transfer(1e9, [up, bus])
    net.transfer(1e9, [down, bus])

    def no_scan(*_a, **_k):
        raise AssertionError("union-find ran")

    monkeypatch.setattr(FlowNetwork, "_find", staticmethod(no_scan))
    net.transfer(1e9, [(bus, 2.0)])
    assert [f.rate for f in net._flows] == [2.5, 2.5, 2.5]
    loads = {lv.name: lv.rate for lv in net.link_snapshot()}
    assert loads == {"bus": 10.0, "up": 2.5, "down": 2.5}
    _assert_incremental_is_full(net)


def test_reallocate_reinterns_rewritten_flows():
    """A flow whose share ``reallocate(mutate)`` rewrote must stop
    matching flows of its old shape: otherwise [B, C] at equal shares
    would reuse the 3:1 rates cached for [A, B]."""
    env = Environment()
    net = FlowNetwork(env)
    link = net.add_link("l", 10.0)
    net.set_policy(link, make_allocator("max-min"))

    def driver():
        a = net.transfer(10.0, [link], share=1.0)
        net.reallocate(lambda f: setattr(f, "share", 3.0))
        net.transfer(1e9, [link], share=1.0)
        assert [f.rate for f in net._flows] == [7.5, 2.5]
        yield a
        yield env.timeout(1.0)
        net.transfer(1e9, [link], share=1.0)
        assert [f.rate for f in net._flows] == [5.0, 5.0]
        _assert_incremental_is_full(net)

    env.run(env.process(driver()))
