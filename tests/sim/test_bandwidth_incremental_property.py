"""Hypothesis battery: the incremental water-filling allocator is
bit-for-bit the from-scratch reference.

:meth:`FlowNetwork._update` recomputes only the link-connected
components touched by a join/leave/``set_capacity``;
:meth:`FlowNetwork._recompute_full` refills *everything*.  Because the
fill is a pure per-component function of (flows in insertion order,
link capacities), the two must agree to the last ulp at every instant
of any operation sequence -- including mid-run capacity degradation of
the kind :mod:`repro.sim.faults` injects.  Exact ``==`` on every float
below is deliberate: any tolerance would hide an order-dependence bug.

The capacity-flap regression at the bottom pins the companion fix: a
flow's ``remaining`` is derived from one ``progressed`` accumulator, so
pathological reallocation storms cannot drift bytes negative or strand
an almost-done flow.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.bandwidth import FlowNetwork
from repro.sim.engine import Environment

# One operation per element: (kind, nbytes/factor, link subset, weight,
# flow cap or None, wait dt).  Subsets over 3 links give isolated,
# shared, and bridging components.
_SUBSETS = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2)]

op_lists = st.lists(
    st.tuples(
        st.sampled_from(["join", "setcap", "wait"]),
        st.floats(min_value=0.05, max_value=20.0),
        st.sampled_from(_SUBSETS),
        st.floats(min_value=1.0, max_value=2.5),
        st.one_of(st.none(), st.floats(min_value=0.5, max_value=50.0)),
        st.floats(min_value=0.0, max_value=2.0),
    ),
    min_size=1, max_size=16)


def _snapshot(net):
    return ([f.rate for f in net._flows],
            [lv.rate for lv in net.link_snapshot()])


def _assert_incremental_is_full(net):
    """The ulp-exact check: refilling everything from scratch must not
    move a single float the incremental path produced."""
    before = _snapshot(net)
    net._recompute_full()
    after = _snapshot(net)
    assert before == after


@given(ops=op_lists,
       caps=st.tuples(*[st.floats(min_value=2.0, max_value=200.0)] * 3))
@settings(max_examples=80, deadline=None)
def test_incremental_update_equals_full_recompute(ops, caps):
    env = Environment()
    net = FlowNetwork(env)
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(caps)]

    def driver():
        pending = []
        for kind, size, subset, weight, cap, dt in ops:
            if kind == "join":
                kw = {} if cap is None else {"cap": cap}
                pending.append(net.transfer(
                    size * 10.0,
                    [(links[i], weight) for i in subset], **kw))
            elif kind == "setcap":
                # Degraded-bandwidth window: scale one link by a factor
                # in [0.05, 20] (faults degrade, repairs restore).
                link = links[subset[0]]
                net.set_capacity(link, max(link.capacity * size * 0.1,
                                           1e-3))
            _assert_incremental_is_full(net)
            if dt > 0.0:
                # Let flows progress (and possibly leave) at the
                # current allocation before the next disturbance.
                yield env.timeout(dt)
                _assert_incremental_is_full(net)
        # Drain: restore healthy capacities (a degraded link can leave
        # horizons of ~1e5 s) and wait out every completion.
        for link, cap0 in zip(links, caps):
            net.set_capacity(link, cap0)
            _assert_incremental_is_full(net)
        for ev in pending:
            if ev.callbacks is not None:   # not yet triggered
                yield ev
            _assert_incremental_is_full(net)

    proc = env.process(driver(), name="driver")
    env.run(proc)
    assert net.active_flows == 0


@given(seed=st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_leave_events_keep_equality(seed):
    """Completions (leaves) in mixed components: after every wakeup the
    incremental state still equals the reference."""
    import random
    rng = random.Random(seed)
    env = Environment()
    net = FlowNetwork(env)
    links = [net.add_link(f"l{i}", rng.uniform(5.0, 50.0))
             for i in range(3)]
    done = []

    def flow(i):
        yield env.timeout(rng.uniform(0.0, 1.0))
        subset = _SUBSETS[rng.randrange(len(_SUBSETS))]
        yield net.transfer(rng.uniform(1.0, 30.0),
                           [links[j] for j in subset])
        _assert_incremental_is_full(net)
        done.append(i)

    n = rng.randrange(2, 9)
    for i in range(n):
        env.process(flow(i), name=f"f{i}")
    env.run()
    assert sorted(done) == list(range(n))


def test_capacity_flap_rounding_regression():
    """Pathological capacity-flap storm: one almost-done flow survives
    hundreds of reallocations across twelve orders of magnitude without
    byte drift.

    Every flap advances the flow and re-derives ``remaining`` from the
    single ``progressed`` accumulator; the invariant below (and the
    exact completion) is what the old per-flap ``remaining -= chunk``
    arithmetic could not hold."""
    env = Environment()
    net = FlowNetwork(env)
    link = net.add_link("flappy", 1e12)
    nbytes = 1e9

    def flapper():
        ev = net.transfer(nbytes, [link])
        flow = net._flows[0]
        for k in range(400):
            yield env.timeout(1e-7)
            net.set_capacity(link, 1e12 if k % 2 else 1e-3 * (1 + k))
            # remaining is *derived*, never independently decremented.
            assert flow.remaining == max(0.0, nbytes - flow.progressed)
            assert flow.remaining >= 0.0
        net.set_capacity(link, 1e12)
        yield ev
        assert flow.progressed == pytest.approx(nbytes, abs=1e-3)

    proc = env.process(flapper(), name="flapper")
    env.run(proc)
    assert net.active_flows == 0
    assert net.completed_flows == 1


def test_capacity_flap_deterministic():
    """The same flap storm twice: bit-identical completion times."""

    def run():
        env = Environment()
        net = FlowNetwork(env)
        link = net.add_link("flappy", 7.5)

        def flapper():
            ev = net.transfer(100.0, [link])
            for k in range(50):
                yield env.timeout(0.01)
                net.set_capacity(link, 7.5 if k % 2 else 0.125)
            net.set_capacity(link, 7.5)
            yield ev

        proc = env.process(flapper(), name="flapper")
        env.run(proc)
        return env.now

    assert run() == run()
