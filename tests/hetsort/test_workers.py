"""Unit tests for the shared pipeline building blocks in
repro.hetsort.workers (below the approach level)."""

import numpy as np
import pytest

from repro.cuda import Runtime
from repro.hetsort.config import SortConfig
from repro.hetsort.context import RunContext, SortedRun
from repro.hetsort.plan import make_plan
from repro.hetsort.resilience import free_surviving
from repro.hetsort.workers import (alloc_worker_buffers, final_multiway,
                                   pair_merge_scheduler)
from repro.hw.machine import Machine
from repro.hw.platforms import PLATFORM1
from repro.sim import CAT
from repro.sim.engine import Environment


def make_ctx(n=40_000, bs=10_000, data=None, **cfg_kw):
    cfg_kw.setdefault("batch_size", bs)
    cfg_kw.setdefault("pinned_elements", 2_000)
    cfg_kw.setdefault("approach", "pipemerge")
    env = Environment()
    machine = Machine(env, PLATFORM1)
    rt = Runtime(machine)
    cfg = SortConfig(**cfg_kw)
    plan = make_plan(n, PLATFORM1, cfg)
    return RunContext(env, machine, rt, plan, cfg, data=data)


def test_alloc_and_free_worker_buffers_accounting():
    ctx = make_ctx()
    done = {}

    def go():
        bufs = yield from alloc_worker_buffers(ctx, 0, "t")
        done["bufs"] = bufs

    proc = ctx.env.process(go())
    ctx.env.run(proc)
    pin_in, pin_out, dev = done["bufs"]
    assert pin_in.nbytes == pin_out.nbytes == 2_000 * 8
    assert dev.nbytes == 2 * 10_000 * 8      # batch + Thrust scratch
    assert ctx.machine.gpus[0].mem_used == dev.nbytes
    assert ctx.machine.pinned_bytes == 2 * 2_000 * 8
    free_surviving(ctx, pin_in, pin_out, dev)
    assert ctx.machine.gpus[0].mem_used == 0
    assert ctx.machine.pinned_bytes == 0


def test_pair_scheduler_respects_quota():
    ctx = make_ctx(n=100_000, bs=10_000)     # 10 batches -> quota 4
    assert ctx.plan.pairwise_merges == 4

    def feeder():
        for b in ctx.plan.batches:
            yield ctx.env.timeout(0.1)
            ctx.finish_run(b)

    ctx.env.process(feeder())
    sched = ctx.env.process(pair_merge_scheduler(ctx))
    merged = ctx.env.run(sched)
    assert len(merged) == 4
    assert all(m.size == 20_000 for m in merged)
    # Each merged run's W slices tile exactly its two inputs' slots: in
    # address order, coalesced, and covering nothing else.
    inputs = []
    for m in merged:
        assert all(o1 + n1 < o2 for (o1, n1), (o2, _)
                   in zip(m.slices, m.slices[1:]))
        covered = np.zeros(ctx.plan.n, dtype=bool)
        for off, size in m.slices:
            covered[off:off + size] = True
        pair = [b for b in ctx.plan.batches
                if covered[b.offset:b.offset + b.size].all()]
        assert len(pair) == 2
        assert covered.sum() == m.size == sum(b.size for b in pair)
        inputs += [b.index for b in pair]
    assert len(set(inputs)) == 8
    ctx.env.run()   # let the feeder deliver the remaining batches
    # 10 - 8 consumed = 2 originals left in the store.
    assert len(ctx.sorted_runs) == 2


def test_pair_scheduler_zero_quota_returns_immediately():
    ctx = make_ctx(n=20_000, bs=10_000)      # 2 batches -> quota 0
    sched = ctx.env.process(pair_merge_scheduler(ctx))
    merged = ctx.env.run(sched)
    assert merged == []


def test_pair_scheduler_functional_merges(rng):
    data = rng.random(40_000)
    ctx = make_ctx(n=40_000, bs=10_000, data=data)
    # Pretend every batch was sorted into W already.
    for b in ctx.plan.batches:
        seg = ctx.W.view(b.offset * 8, b.size * 8)
        seg[:] = np.sort(data[b.offset:b.offset + b.size])
        ctx.finish_run(b)
    sched = ctx.env.process(pair_merge_scheduler(ctx))
    merged = ctx.env.run(sched)
    assert len(merged) == ctx.plan.pairwise_merges == 1
    # The merged run is written back over its two batches' W slots.
    assert merged[0].slices == ((0, 20_000),)
    out = ctx.W.data[:20_000]
    assert np.all(out[:-1] <= out[1:])
    np.testing.assert_array_equal(out, np.sort(data[:20_000]))


def test_final_multiway_single_run_is_a_copy(rng):
    data = rng.random(10_000)
    ctx = make_ctx(n=10_000, bs=10_000, data=data)
    ctx.W.data[:] = np.sort(data)
    ctx.finish_run(ctx.plan.batches[0])

    def go():
        yield from final_multiway(ctx)

    proc = ctx.env.process(go())
    ctx.env.run(proc)
    assert np.array_equal(ctx.B.data, np.sort(data))
    # A copy, not a merge: MCpy recorded, no Merge span.
    assert ctx.trace.count(CAT.MERGE) == 0
    assert ctx.trace.count(CAT.MCPY) >= 1


def test_final_multiway_merges_runs_and_pairs(rng):
    data = rng.random(40_000)
    ctx = make_ctx(n=40_000, bs=10_000, data=data)
    batches = ctx.plan.batches
    for b in batches[:2]:
        seg = ctx.W.view(b.offset * 8, b.size * 8)
        seg[:] = np.sort(data[b.offset:b.offset + b.size])
        ctx.finish_run(b)
    ctx.W.data[20_000:] = np.sort(data[20_000:])
    pair = SortedRun(size=20_000, slices=((20_000, 20_000),))

    def go():
        yield from final_multiway(ctx, extra_runs=[pair])

    proc = ctx.env.process(go())
    ctx.env.run(proc)
    assert np.array_equal(ctx.B.data, np.sort(data))
    spans = ctx.trace.filter(category=CAT.MERGE)
    assert len(spans) == 1
    assert dict(spans[0].meta)["k"] == 3


def test_final_multiway_without_runs_raises():
    ctx = make_ctx()

    def go():
        yield from final_multiway(ctx)

    proc = ctx.env.process(go())
    with pytest.raises(RuntimeError, match="no sorted runs"):
        ctx.env.run(proc)


def test_final_multiway_coverage_check(rng):
    ctx = make_ctx(n=40_000, bs=10_000)
    ctx.finish_run(ctx.plan.batches[0])   # only 10k of 40k

    def go():
        yield from final_multiway(ctx)

    proc = ctx.env.process(go())
    with pytest.raises(RuntimeError, match="cover"):
        ctx.env.run(proc)


def test_context_pipeline_merge_threads_default():
    ctx = make_ctx(n_streams=2)
    # 16 cores - 2 stream workers = 14.
    assert ctx.pipeline_merge_threads == 14
    ctx2 = make_ctx(pipeline_merge_threads=5)
    assert ctx2.pipeline_merge_threads == 5


def test_context_rejects_mismatched_data(rng):
    with pytest.raises(ValueError):
        make_ctx(n=100, bs=50, data=rng.random(99))
