"""Tests for the assembled Machine: primitives, contention, accounting."""

import pytest

from repro.errors import CudaOutOfMemory, SimulationError
from repro.hw import Direction, Machine, PLATFORM1, PLATFORM2
from repro.sim import CAT
from repro.sim.engine import Environment


def run(env, gen):
    proc = env.process(gen)
    env.run(proc)
    return env.now


def test_machine_gpu_count_validation(env):
    with pytest.raises(SimulationError):
        Machine(env, PLATFORM1, n_gpus=2)
    m = Machine(env, PLATFORM2, n_gpus=2)
    assert len(m.gpus) == 2


def test_host_memcpy_duration(env):
    m = Machine(env, PLATFORM1)
    nbytes = 1e9
    run(env, m.host_memcpy(nbytes, threads=1))
    assert env.now == pytest.approx(
        nbytes / PLATFORM1.hostmem.per_core_copy_bw)
    assert m.trace.total(CAT.MCPY) == pytest.approx(env.now)


def test_parallel_memcpy_faster_up_to_bus(env):
    m = Machine(env, PLATFORM1)
    nbytes = 1e9
    run(env, m.host_memcpy(nbytes, threads=8))
    # 8 threads: capped by the bus, not 8x the single-core rate.
    assert env.now == pytest.approx(
        nbytes / PLATFORM1.hostmem.copy_bus_bw)


def test_pcie_transfer_pinned_rate(env):
    m = Machine(env, PLATFORM1)
    nbytes = 8 * 8e8   # 5.96 GiB
    run(env, m.pcie_transfer(m.gpus[0], nbytes, Direction.HTOD,
                             pinned=True))
    assert env.now == pytest.approx(0.536, rel=0.02)  # Fig. 7 anchor
    assert m.trace.total(CAT.HTOD) == pytest.approx(env.now)


def test_pcie_pageable_about_half_speed(env):
    m = Machine(env, PLATFORM1)
    nbytes = 1e9

    def both():
        yield from m.pcie_transfer(m.gpus[0], nbytes, Direction.HTOD,
                                   pinned=True)
        t_pinned = env.now
        yield from m.pcie_transfer(m.gpus[0], nbytes, Direction.HTOD,
                                   pinned=False)
        return t_pinned, env.now - t_pinned

    proc = env.process(both())
    env.run(proc)
    t_pinned, t_pageable = proc.value
    assert t_pageable / t_pinned == pytest.approx(2.0, rel=0.1)


def test_bidirectional_transfers_overlap(env):
    """HtoD and DtoH overlap on separate PCIe links/engines; their only
    shared constraint is the host memory bus, where they split the
    bandwidth fairly."""
    m = Machine(env, PLATFORM1)
    nbytes = 8 * 5e8

    def one(direction):
        yield from m.pcie_transfer(m.gpus[0], nbytes, direction,
                                   pinned=True)

    env.process(one(Direction.HTOD))
    env.process(one(Direction.DTOH))
    env.run()
    pinned = PLATFORM1.pcie.flow_cap(True)
    bus = PLATFORM1.hostmem.copy_bus_bw
    per_flow = min(pinned, bus / 2)
    expected = nbytes / per_flow
    serial = 2 * nbytes / pinned
    assert env.now == pytest.approx(expected, rel=0.01)
    assert env.now < serial * 0.8  # still much better than serial


def test_same_direction_transfers_serialize_on_copy_engine(env):
    """Two HtoD copies to one GPU queue on its single copy engine."""
    m = Machine(env, PLATFORM1)
    nbytes = 8 * 5e8

    def one():
        yield from m.pcie_transfer(m.gpus[0], nbytes, Direction.HTOD,
                                   pinned=True)

    env.process(one())
    env.process(one())
    env.run()
    solo = nbytes / PLATFORM1.pcie.flow_cap(True)
    assert env.now == pytest.approx(2 * solo, rel=0.01)


def test_two_gpus_share_pcie_link(env):
    """Concurrent HtoD to two GPUs exceeds the 16 GB/s link: each pinned
    flow wants 12 GB/s but they share 16 (Sec. IV-F, Experiment 2)."""
    m = Machine(env, PLATFORM2, n_gpus=2)
    nbytes = 12e9

    def one(g):
        yield from m.pcie_transfer(m.gpus[g], nbytes, Direction.HTOD,
                                   pinned=True)

    env.process(one(0))
    env.process(one(1))
    env.run()
    # Together: 24 GB total over a 16 GB/s link -> 1.5 s (not 1.0 s).
    assert env.now == pytest.approx(24e9 / 16e9, rel=0.02)


def test_host_merge_duration_and_category(env):
    m = Machine(env, PLATFORM1)
    n = int(1e9)
    run(env, m.host_merge(n, k=2, threads=16))
    assert env.now == pytest.approx(PLATFORM1.merge.seconds(n, 16, 2),
                                    rel=0.01)
    assert m.trace.count(CAT.MERGE) == 1


def test_multiway_merge_slower_than_pairwise(env):
    m = Machine(env, PLATFORM1)
    n = int(1e9)

    def seq():
        yield from m.host_merge(n, k=2, threads=16)
        t2 = env.now
        yield from m.host_merge(n, k=16, threads=16)
        return t2, env.now - t2

    proc = env.process(seq())
    env.run(proc)
    t2, t16 = proc.value
    assert t16 > t2


def test_merge_holds_cores(env):
    """A 16-thread merge must block other 16-core work."""
    m = Machine(env, PLATFORM1)
    order = []

    def merger():
        yield from m.host_merge(int(1e8), k=2, threads=16)
        order.append(("merge", env.now))

    def sorter():
        yield from m.cpu_sort(int(1e6), threads=16)
        order.append(("sort", env.now))

    env.process(merger())
    env.process(sorter())
    env.run()
    assert order[0][0] == "merge"
    assert order[1][1] > order[0][1]


def test_cpu_sort_duration(env):
    m = Machine(env, PLATFORM1)
    n = int(1e8)
    run(env, m.cpu_sort(n, threads=16))
    assert env.now == pytest.approx(
        PLATFORM1.sort_model("gnu").seconds(n, 16), rel=0.01)
    [span] = m.trace.filter(category=CAT.CPUSORT)
    assert dict(span.meta) == {"library": "gnu", "threads": 16}


def test_pinned_alloc_cost_and_accounting(env):
    m = Machine(env, PLATFORM1)
    run(env, m.pinned_alloc(8e6))
    assert env.now == pytest.approx(0.01, rel=0.01)
    assert m.pinned_bytes == 8e6
    m.pinned_free(8e6)
    assert m.pinned_bytes == 0


def test_pinned_alloc_capacity_enforced(env):
    m = Machine(env, PLATFORM1)
    with pytest.raises(CudaOutOfMemory):
        env.run(env.process(m.pinned_alloc(200 * 1024 ** 3)))


def test_pinned_free_validation(env):
    m = Machine(env, PLATFORM1)
    with pytest.raises(SimulationError):
        m.pinned_free(1)


def test_invalid_direction_rejected(env):
    m = Machine(env, PLATFORM1)
    with pytest.raises(SimulationError):
        env.run(env.process(
            m.pcie_transfer(m.gpus[0], 8, "sideways")))


def test_functional_work_callback_runs(env):
    m = Machine(env, PLATFORM1)
    ran = []
    run(env, m.host_memcpy(8.0, work=lambda: ran.append(True)))
    assert ran == [True]
