"""Tests for Resource (FIFO counting semaphore) and Store."""

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Resource, Store

# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def run_tasks(env, cores, specs):
    """specs: (name, units, duration); returns [(event, name, time)]."""
    log = []

    def task(env, name, units, dur):
        yield cores.request(units)
        log.append(("start", name, env.now))
        yield env.timeout(dur)
        cores.release(units)
        log.append(("end", name, env.now))

    for name, units, dur in specs:
        env.process(task(env, name, units, dur))
    env.run()
    return log


def test_capacity_enforced(env):
    cores = Resource(env, 2)
    log = run_tasks(env, cores, [("a", 1, 1.0), ("b", 1, 1.0),
                                 ("c", 1, 1.0)])
    starts = {name: t for kind, name, t in log if kind == "start"}
    assert starts == {"a": 0.0, "b": 0.0, "c": 1.0}


def test_multi_unit_requests(env):
    cores = Resource(env, 4)
    log = run_tasks(env, cores, [("big", 3, 2.0), ("small", 2, 1.0)])
    starts = {name: t for kind, name, t in log if kind == "start"}
    # small needs 2 units but only 1 is free until big releases.
    assert starts == {"big": 0.0, "small": 2.0}


def test_strict_fifo_no_bypass(env):
    """A small request queued behind a large one must NOT jump the queue
    even if it would fit."""
    cores = Resource(env, 4)
    log = run_tasks(env, cores, [("hold", 3, 2.0), ("wide", 4, 1.0),
                                 ("tiny", 1, 1.0)])
    starts = {name: t for kind, name, t in log if kind == "start"}
    assert starts["hold"] == 0.0
    assert starts["wide"] == 2.0
    assert starts["tiny"] == 3.0  # waits behind wide despite free unit


def test_counts_track_usage(env):
    cores = Resource(env, 8)

    def task(env):
        yield cores.request(5)
        assert cores.in_use == 5
        assert cores.available == 3
        yield env.timeout(1.0)
        cores.release(5)

    env.process(task(env))
    env.run()
    assert cores.in_use == 0


def test_over_release_rejected(env):
    cores = Resource(env, 2)
    with pytest.raises(SimulationError):
        cores.release(1)


def test_request_more_than_capacity_rejected(env):
    cores = Resource(env, 2)
    with pytest.raises(SimulationError):
        cores.request(3)


def test_invalid_capacity_rejected(env):
    with pytest.raises(SimulationError):
        Resource(env, 0)


def test_queue_length(env):
    cores = Resource(env, 1)

    def holder(env):
        yield cores.request(1)
        yield env.timeout(1.0)
        cores.release(1)

    def waiter(env):
        yield cores.request(1)
        cores.release(1)

    env.process(holder(env))
    env.process(waiter(env))
    env.process(waiter(env))
    env.run(until=0.5)
    assert cores.queue_length == 2
    env.run()
    assert cores.queue_length == 0


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get(env):
    store = Store(env)
    store.put("x")
    got = []

    def getter(env, store):
        item = yield store.get()
        got.append(item)

    env.process(getter(env, store))
    env.run()
    assert got == ["x"]


def test_store_get_blocks_until_put(env):
    store = Store(env)
    got = []

    def getter(env, store):
        item = yield store.get()
        got.append((env.now, item))

    def putter(env, store):
        yield env.timeout(2.0)
        store.put("late")

    env.process(getter(env, store))
    env.process(putter(env, store))
    env.run()
    assert got == [(2.0, "late")]


def test_store_fifo_order_of_items_and_getters(env):
    store = Store(env)
    got = []

    def getter(env, store, name):
        item = yield store.get()
        got.append((name, item))

    env.process(getter(env, store, "g1"))
    env.process(getter(env, store, "g2"))

    def putter(env, store):
        yield env.timeout(1.0)
        store.put("first")
        store.put("second")

    env.process(putter(env, store))
    env.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_store_try_get(env):
    store = Store(env)
    assert store.try_get() == (False, None)
    store.put(1)
    assert store.try_get() == (True, 1)
    assert len(store) == 0


def test_over_release_changes_nothing(env):
    """The capacity check used to run after the pool was topped up:
    capacity 2 was left at available=3, in_use=-1."""
    cores = Resource(env, capacity=2)
    cores.request(1)
    env.run()
    before = (cores.available, cores.in_use, cores.queue_length)
    with pytest.raises(SimulationError, match="released more units"):
        cores.release(2)
    assert (cores.available, cores.in_use,
            cores.queue_length) == before == (1, 1, 0)
    cores.release(1)
    assert (cores.available, cores.in_use) == (2, 0)


@pytest.mark.parametrize("units", [1.5, 1.0, "1"])
def test_units_must_be_integers(env, units):
    """``request(1.5)`` used to be granted and left available=2.5."""
    cores = Resource(env, capacity=4)
    with pytest.raises(SimulationError, match="must be an integer"):
        cores.request(units)
    assert (cores.available, cores.queue_length) == (4, 0)
    cores.request(2)
    with pytest.raises(SimulationError, match="must be an integer"):
        cores.release(units)
    assert cores.available == 2


def test_integer_like_units_are_accepted(env):
    import numpy as np
    cores = Resource(env, capacity=4)
    ev = cores.request(np.int64(3))
    env.run()
    assert ev.value == 3 and cores.available == 1
    cores.release(np.int32(3))
    assert cores.available == 4
