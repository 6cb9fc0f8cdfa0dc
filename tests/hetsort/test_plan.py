"""Tests for the batch planner."""

import pytest

from repro.errors import PlanError
from repro.hetsort.config import Approach, SortConfig
from repro.hetsort.plan import (make_plan, max_batch_size, pairwise_quota)
from repro.hw.platforms import PLATFORM1, PLATFORM2


def cfg(**kw):
    return SortConfig(**kw)


def test_max_batch_size_respects_double_buffering():
    """2 * b_s * n_s elements must fit on the GPU (Sec. III-B)."""
    for ns in (1, 2, 4):
        bs = max_batch_size(PLATFORM1, n_streams=ns)
        assert 2 * bs * ns * 8 <= PLATFORM1.gpus[0].mem_bytes
        # Maximal: one more element per batch would overflow.
        assert 2 * (bs + 1) * ns * 8 > PLATFORM1.gpus[0].mem_bytes


def test_paper_batch_sizes_fit():
    """The paper's choices: b_s = 5e8 with n_s = 2 on PLATFORM1 (16 GiB)
    and b_s = 3.5e8 with n_s = 2 on PLATFORM2 (12 GiB)."""
    assert 2 * int(5e8) * 2 * 8 <= PLATFORM1.gpus[0].mem_bytes
    assert 2 * int(3.5e8) * 2 * 8 <= PLATFORM2.gpus[0].mem_bytes


def test_plan_covers_input_exactly():
    plan = make_plan(10 ** 6, PLATFORM1,
                     cfg(batch_size=3 * 10 ** 5, approach="pipedata"))
    assert sum(b.size for b in plan.batches) == 10 ** 6
    offsets = [b.offset for b in plan.batches]
    assert offsets == sorted(offsets)
    assert plan.n_batches == 4           # 3+3+3+1 x 1e5
    assert plan.batches[-1].size == 10 ** 5


def test_plan_round_robin_over_gpu_stream_pairs():
    plan = make_plan(8 * 10 ** 5, PLATFORM2,
                     cfg(batch_size=10 ** 5, n_streams=2,
                         approach="pipedata"), n_gpus=2)
    pairs = [(b.gpu, b.stream_slot) for b in plan.batches]
    assert pairs[:4] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    # Balanced: every (gpu, stream) worker gets the same number.
    for g in range(2):
        for s in range(2):
            assert len(plan.batches_for(g, s)) == 2
            assert list(plan.batches_for(g, s)) == [
                b for b in plan.batches if (b.gpu, b.stream_slot) == (g, s)]
    # A pair outside the plan gets nothing (no aliasing of a worker).
    for g, s in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        assert not plan.batches_for(g, s)


def test_plan_default_batch_size_maximal():
    plan = make_plan(4 * 10 ** 9, PLATFORM1, cfg(approach="pipedata"))
    assert plan.batch_size == max_batch_size(PLATFORM1, 2)


def test_chunks_tile_batch():
    plan = make_plan(10 ** 6, PLATFORM1,
                     cfg(batch_size=250_000, pinned_elements=64_000,
                         approach="pipedata"))
    batch = plan.batches[0]
    chunks = plan.chunks(batch)
    assert sum(c[2] for c in chunks) == batch.size
    assert chunks[0][0] == batch.offset
    # Device offsets tile contiguously from 0.
    assert [c[1] for c in chunks] == \
        [sum(ch[2] for ch in chunks[:i]) for i in range(len(chunks))]
    assert all(c[2] <= plan.pinned_elements for c in chunks)


def test_pinned_clamped_to_batch():
    plan = make_plan(1000, PLATFORM1,
                     cfg(batch_size=500, pinned_elements=10 ** 6,
                         approach="pipedata"))
    assert plan.pinned_elements == 500


def test_pairwise_quota_heuristics():
    """Sec. III-D3: floor((nb-1)/2) for 1 GPU; floor((nb-1)/(2 nGPU))
    for multi-GPU; the paper's Fig. 3 example: nb = 6 -> 2 merges."""
    assert pairwise_quota(6, 1) == 2
    assert pairwise_quota(7, 1) == 3   # odd: last batch unmerged
    assert pairwise_quota(1, 1) == 0
    assert pairwise_quota(2, 1) == 0
    assert pairwise_quota(10, 1) == 4
    assert pairwise_quota(10, 2) == 2
    assert pairwise_quota(10, 4) == 1


def test_quota_never_exhausts_batches():
    """2 * quota < n_b always: the final multiway merge always has at
    least one unpaired original batch plus the merged runs."""
    for nb in range(1, 50):
        for ng in (1, 2, 3, 4):
            assert 2 * pairwise_quota(nb, ng) < max(nb, 1) or nb == 0


def test_bline_single_gpu_plan():
    plan = make_plan(10 ** 6, PLATFORM1, cfg(approach=Approach.BLINE))
    assert plan.n_batches == 1
    assert plan.n_streams == 1
    assert plan.batch_size == 10 ** 6


def test_bline_two_gpu_plan():
    plan = make_plan(10 ** 6, PLATFORM2, cfg(approach=Approach.BLINE),
                     n_gpus=2)
    assert plan.n_batches == 2
    assert {b.gpu for b in plan.batches} == {0, 1}


def test_bline_rejects_oversized_input():
    too_big = PLATFORM1.gpus[0].mem_bytes // 8  # 2n would overflow
    with pytest.raises(PlanError):
        make_plan(too_big, PLATFORM1, cfg(approach=Approach.BLINE))


def test_bline_divisibility():
    with pytest.raises(PlanError, match="divisible"):
        make_plan(10 ** 6 + 1, PLATFORM2, cfg(approach=Approach.BLINE),
                  n_gpus=2)


def test_plan_rejects_too_many_gpus():
    with pytest.raises(PlanError):
        make_plan(100, PLATFORM1, cfg(), n_gpus=2)


def test_plan_rejects_empty_input():
    with pytest.raises(PlanError):
        make_plan(0, PLATFORM1, cfg())


def test_plan_host_memory_limit():
    """~3n bytes must fit in host memory (Sec. III-C): the paper caps n
    at ~5e9 on 128 GiB hosts."""
    ok = int(5e9)
    make_plan(ok, PLATFORM1, cfg(batch_size=int(5e8), approach="pipedata"))
    too_big = int(6.5e9)
    with pytest.raises(PlanError, match="3n"):
        make_plan(too_big, PLATFORM1,
                  cfg(batch_size=int(5e8), approach="pipedata"))


def test_device_memory_validation():
    with pytest.raises(PlanError, match="global memory"):
        make_plan(10 ** 10, PLATFORM1,
                  cfg(batch_size=int(2e9), approach="pipedata"))


def test_plan_properties():
    plan = make_plan(10 ** 6, PLATFORM1,
                     cfg(batch_size=10 ** 5, approach="pipemerge"))
    assert plan.n_batches == 10
    assert plan.pairwise_merges == 4
    assert plan.device_bytes_per_gpu == 2 * 10 ** 5 * 2 * 8
    assert plan.host_bytes == 3 * 10 ** 6 * 8
