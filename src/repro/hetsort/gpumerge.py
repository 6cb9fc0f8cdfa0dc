"""GPUMERGE: an experimental extension implementing the paper's Sec. V
outlook.

    "Sorting in the NVLink era using multi-GPU systems needs to address
    the problem of merging using the GPUs, such that the CPU does not
    need to carry out all merging tasks."

This approach runs the PIPEDATA batch-sorting phase unchanged, then
performs the merge *on the GPU*: a binary merge tree where each level
streams two sorted runs back to the device in pinned-staged chunks,
merges them with a device Merge-Path kernel, and streams the result out.
Every tree level therefore moves the full dataset across the
interconnect twice -- which is exactly why this loses on PCIe v3 and is
interesting on NVLink.  The ``benchmarks/test_ext_gpumerge_nvlink.py``
bench sweeps the interconnect bandwidth and locates the crossover.

Modelling notes: chunk-level buffer bookkeeping is abstracted (transfers
are issued per chunk against the device's copy engines and the shared
links, but device buffers are modelled as a fixed-size working set);
functionally each pair merge really merges the two runs, through the
front of B and back over their W slots -- where the simulated
``Stage->W(gpumerge)`` copies land the merged output.  The device
merge kernel is device-memory-bound: GP100-class HBM makes it far faster
than the interconnect, so GPU merging is transfer-bound by construction.
"""

from __future__ import annotations

import numpy as np

from repro.cuda import ELEM
from repro.hetsort.context import RunContext, SortedRun
from repro.hetsort.pipedata import spawn_stream_workers
from repro.hetsort.resilience import DEGRADED
from repro.hetsort.workers import merge_pair_in_w
from repro.hw.gpu import Direction
from repro.sim import CAT

__all__ = ["run_gpumerge", "GPU_MERGE_RATE_F64"]

#: Device Merge-Path throughput for 64-bit keys (elements/second).
#: Memory-bound: ~24 B of HBM traffic per output element against
#: 500+ GB/s of device bandwidth.
GPU_MERGE_RATE_F64 = 2.0e10


def _gpu_pair_merge(ctx: RunContext, gpu_index: int, first: SortedRun,
                    second: SortedRun, out: SortedRun):
    """Process: merge two sorted runs on a GPU, chunk-streamed both ways."""
    machine = ctx.machine
    gpu = machine.gpus[gpu_index]
    total = first.size + second.size
    ps = ctx.plan.pinned_elements
    lane = f"gpumerge@gpu{gpu_index}"

    # Stream both inputs in, interleaved chunk by chunk (the kernel
    # consumes windows of each run); kernel time accrues per window; the
    # merged output streams straight back out.  The first staging copy
    # depends on both runs' producers (buffer handoff); the chunk chain is
    # then linked span to span, single-staging-buffer reuse included.
    done = 0
    prev: tuple = (first.producer_id, second.producer_id)
    last = None
    while done < total:
        step = min(ps, total - done)
        nbytes = step * ELEM
        staged = yield from machine.host_memcpy(
            nbytes, threads=ctx.config.memcpy_threads,
            label="W->Stage(gpumerge)", lane=lane, deps=prev)
        htod = yield from machine.pcie_transfer(
            gpu, nbytes, Direction.HTOD, pinned=True,
            label="gpumerge.in", lane=lane, deps=(staged,))
        start = machine.env.now
        yield machine.env.timeout(step / GPU_MERGE_RATE_F64)
        kern = machine.trace.record(CAT.GPUSORT, "mergepath<<<...>>>", start,
                                    machine.env.now, lane=f"gpu{gpu_index}",
                                    elements=step, deps=(htod,))
        dtoh = yield from machine.pcie_transfer(
            gpu, nbytes, Direction.DTOH, pinned=True,
            label="gpumerge.out", lane=lane, deps=(kern,))
        last = yield from machine.host_memcpy(
            nbytes, threads=ctx.config.memcpy_threads,
            label="Stage->W(gpumerge)", lane=lane, deps=(dtoh,))
        prev = (last,)
        done += step
    out.producer_id = last

    if ctx.functional:
        merge_pair_in_w(ctx, first, second, out)


def _resilient_pair_merge(ctx: RunContext, gpu_index: int | None,
                          first: SortedRun, second: SortedRun,
                          out: SortedRun, level: int, idx: int):
    """Process: one merge-tree pair, degrading to a CPU pair merge when
    no device can run it (``gpu_index is None``: every GPU already dead)
    or the chosen device's path is exhausted mid-merge."""
    if gpu_index is not None:
        try:
            yield from _gpu_pair_merge(ctx, gpu_index, first, second, out)
            return
        except DEGRADED as exc:
            ctx.degrade("cpu.fallback", approach="gpumerge", level=level,
                        pair=idx, gpu=gpu_index, error=type(exc).__name__)
    else:
        ctx.degrade("cpu.fallback", approach="gpumerge", level=level,
                    pair=idx, gpu=None, error="GpuLostError")

    def work():
        if ctx.functional:
            merge_pair_in_w(ctx, first, second, out)

    span = yield from ctx.machine.host_merge(
        out.size, k=2, threads=ctx.pipeline_merge_threads,
        label=f"fallback::pairmerge[L{level}.{idx}]", lane="cpu.fallback",
        category=CAT.PAIRMERGE, work=work,
        deps=(first.producer_id, second.producer_id))
    out.producer_id = span
    ctx.obs.incr("pair_merges.degraded")


def run_gpumerge(ctx: RunContext):
    """Process: PIPEDATA batch sorting + a GPU-side binary merge tree."""
    workers = spawn_stream_workers(ctx)
    yield ctx.env.all_of(workers)

    runs: list[SortedRun] = []
    while True:
        ok, item = ctx.sorted_runs.try_get()
        if not ok:
            break
        runs.append(item)

    level = 0
    ctx.obs.sample("gpumerge.runs_remaining", len(runs))
    while len(runs) > 1:
        # Route each level's pairs over the devices still alive; with
        # every GPU healthy this is the identical round-robin mapping.
        alive = [g for g in range(ctx.plan.n_gpus)
                 if not ctx.machine.gpus[g].lost]
        if len(alive) < ctx.plan.n_gpus:
            ctx.degrade("replan", approach="gpumerge", level=level,
                        survivors=alive)
        ctx.phase("merge.started", kind="gpu", level=level,
                  runs=len(runs))
        nxt: list[SortedRun] = []
        procs = []
        for i in range(0, len(runs) - 1, 2):
            first, second = runs[i], runs[i + 1]
            out = SortedRun.pair(first, second)
            gpu_index = alive[(i // 2) % len(alive)] if alive else None
            procs.append(ctx.env.process(
                _resilient_pair_merge(ctx, gpu_index, first, second, out,
                                      level, i // 2),
                name=f"gpumerge.L{level}.{i // 2}"))
            nxt.append(out)
        if len(runs) % 2:
            nxt.append(runs[-1])
        yield ctx.env.all_of(procs)
        runs = nxt
        level += 1
        ctx.obs.sample("gpumerge.runs_remaining", len(runs))
        ctx.phase("merge.done", kind="gpu", level=level - 1,
                  runs=len(runs))
    ctx.meta["gpu_merge_levels"] = level

    # The single remaining run becomes B (a parallel host copy).
    final = runs[0]

    def copy_work():
        if ctx.functional:
            np.concatenate(final.pieces(ctx), out=ctx.B.data)

    yield from ctx.machine.host_memcpy(
        final.size * ELEM, threads=ctx.merge_threads, label="W->B",
        lane="cpu.merge", work=copy_work,
        deps=(final.producer_id,))
