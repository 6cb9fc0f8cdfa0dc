"""Shared building blocks of the sorting approaches.

Each helper is a simulation process (generator) written against the
simulated CUDA runtime, mirroring the host code structure the paper
describes.  The same generators move real data in functional mode.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.cuda import ELEM, MemcpyKind, copy_payload
from repro.cuda.buffers import Buffer, DeviceBuffer, PinnedBuffer
from repro.hetsort.context import RunContext, SortedRun
from repro.hetsort.plan import Batch
from repro.hetsort.resilience import retry_call
from repro.kernels.mergepath import merge_two
from repro.kernels.multiway import multiway_merge
from repro.sim import CAT

__all__ = [
    "alloc_worker_buffers",
    "staged_blocking_batch", "pageable_blocking_batch",
    "async_stream_batch", "final_multiway", "merge_pair_in_w",
    "pair_merge_scheduler",
]


def alloc_worker_buffers(ctx: RunContext, gpu: int, tag: str):
    """Process: allocate one worker's staging and device buffers.

    Returns ``(pinned_in, pinned_out, dev)``.  The device buffer holds
    ``2 * b_s`` elements: the batch plus Thrust's out-of-place scratch
    (Sec. III-B).  The two pinned allocations are sequential on the host
    thread, so the second depends causally on the first; the first use of
    either buffer should depend on ``buf.alloc_span``.  Functional
    arrays come from the run's workspace (:meth:`RunContext.host_array`).
    """
    ps = ctx.plan.pinned_elements
    bs = ctx.plan.batch_size
    pinned_in = yield from ctx.rt.malloc_host(
        ps * ELEM, name=f"stage_in.{tag}", data=ctx.host_array(ps))
    try:
        pinned_out = yield from ctx.rt.malloc_host(
            ps * ELEM, name=f"stage_out.{tag}", data=ctx.host_array(ps),
            deps=(pinned_in.alloc_span,))
    except Exception:
        ctx.rt.free_host(pinned_in)
        raise
    dev_data = ctx.host_array(2 * bs)
    try:
        dev = yield from retry_call(
            ctx.machine,
            lambda: ctx.rt.malloc(2 * bs * ELEM, gpu_index=gpu,
                                  name=f"dev.{tag}", data=dev_data),
            what=f"cudaMalloc[dev.{tag}]", lane=f"host.gpu{gpu}",
            deps=(pinned_in.alloc_span, pinned_out.alloc_span))
    except Exception:
        # A partially-allocated worker must not leak its staging
        # buffers when the device path is exhausted (the caller only
        # sees None and cannot free them) -- the allocation ledger's
        # leak detector pins this.
        ctx.rt.free_host(pinned_in)
        ctx.rt.free_host(pinned_out)
        raise
    return pinned_in, pinned_out, dev


# ---------------------------------------------------------------------------
# Blocking data paths (BLINE / BLINEMULTI)
# ---------------------------------------------------------------------------

def staged_blocking_batch(ctx: RunContext, batch: Batch,
                          pinned_in: PinnedBuffer, pinned_out: PinnedBuffer,
                          dev: DeviceBuffer, stream, out: Buffer,
                          lane: str, deps=()):
    """Process: one batch through the *blocking* pinned-staging path:

    ``A -> Stage -> HtoD -> GPUSort -> DtoH -> Stage -> out``
    (Sec. III-D2's n_b = 1 workflow; ``out`` is B for BLINE, W otherwise).

    ``deps`` seeds the first operation's causal parents (the pinned
    allocations / the previous batch on this worker); the chunk chain is
    linked span to span -- each HtoD depends on the staging copy that
    filled the pinned buffer, and the next staging copy depends on the
    HtoD that drained it (single-buffer reuse).  Returns the batch's last
    span (the final ``Stage->out`` copy).
    """
    rt, machine, cfg = ctx.rt, ctx.machine, ctx.config
    prev = tuple(deps)
    for a_off, b_off, size in ctx.plan.chunks(batch):
        nb = size * ELEM

        def stage_in(a_off=a_off, nb=nb):
            copy_payload(pinned_in, 0, ctx.A, a_off * ELEM, nb)

        staged = yield from machine.host_memcpy(
            nb, threads=cfg.memcpy_threads, label="A->Stage", lane=lane,
            work=stage_in, deps=prev)
        htod = yield from rt.memcpy(dev, pinned_in, nb,
                                    MemcpyKind.HOST_TO_DEVICE,
                                    dst_off=b_off * ELEM, lane=lane,
                                    deps=(staged,))
        if ctx.bus is not None:   # no kwargs built per chunk without one
            ctx.phase("chunk.htod", batch=batch.index, gpu=batch.gpu,
                      elements=size)
        prev = (htod,)
    ctx.phase("batch.staged", batch=batch.index, gpu=batch.gpu,
              elements=batch.size)
    done = yield from rt.sort_async(dev, batch.size, stream, deps=prev)
    sort_span = yield done  # blocking semantics: host waits for the sort
    ctx.phase("batch.sorted", batch=batch.index, gpu=batch.gpu,
              elements=batch.size)
    prev = (sort_span,)
    last = sort_span
    for a_off, b_off, size in ctx.plan.chunks(batch):
        nb = size * ELEM
        dtoh = yield from rt.memcpy(pinned_out, dev, nb,
                                    MemcpyKind.DEVICE_TO_HOST,
                                    src_off=b_off * ELEM, lane=lane,
                                    deps=prev)

        def stage_out(a_off=a_off, nb=nb):
            copy_payload(out, a_off * ELEM, pinned_out, 0, nb)

        last = yield from machine.host_memcpy(
            nb, threads=cfg.memcpy_threads, label="Stage->out", lane=lane,
            work=stage_out, deps=(dtoh,))
        prev = (last,)   # pinned_out reuse: next DtoH waits for this copy
    return last


def pageable_blocking_batch(ctx: RunContext, batch: Batch,
                            dev: DeviceBuffer, stream, out: Buffer,
                            lane: str, deps=()):
    """Process: one batch via plain blocking ``cudaMemcpy`` from pageable
    memory (no staging, no pinned buffers): ``A -> HtoD -> GPUSort ->
    DtoH -> out`` (Sec. III-D's literal BLINE).  Returns the batch's last
    span (the DtoH)."""
    rt = ctx.rt
    htod = yield from rt.memcpy(dev, ctx.A, batch.nbytes,
                                MemcpyKind.HOST_TO_DEVICE,
                                src_off=batch.offset_bytes, lane=lane,
                                deps=deps)
    ctx.phase("chunk.htod", batch=batch.index, gpu=batch.gpu,
              elements=batch.size)
    done = yield from rt.sort_async(dev, batch.size, stream, deps=(htod,))
    sort_span = yield done
    ctx.phase("batch.sorted", batch=batch.index, gpu=batch.gpu,
              elements=batch.size)
    dtoh = yield from rt.memcpy(out, dev, batch.nbytes,
                                MemcpyKind.DEVICE_TO_HOST,
                                dst_off=batch.offset_bytes, lane=lane,
                                deps=(sort_span,))
    return dtoh


# ---------------------------------------------------------------------------
# Pipelined data path (PIPEDATA / PIPEMERGE)
# ---------------------------------------------------------------------------

def async_stream_batch(ctx: RunContext, batch: Batch,
                       pinned_in: PinnedBuffer, pinned_out: PinnedBuffer,
                       dev: DeviceBuffer, stream, deps=()):
    """Process: one batch through the asynchronous pipelined path of
    Fig. 2: chunked ``MCpy``/``HtoD`` interleave into the device, an async
    sort, then chunked ``DtoH``/``MCpy`` out to W.

    Within the stream the per-chunk ``stream.synchronize()`` is required
    before reusing the single pinned buffer -- this is the per-copy
    synchronisation overhead the related work omits (Sec. IV-E).
    Across streams, everything overlaps.

    Causal edges: each async copy depends on the staging copy that fed it
    (plus stream order, recorded by the stream itself); each ``Sync``
    span depends on the op it waited for; the host-side chain
    (``deps`` -> staging -> sync -> staging ...) captures worker program
    order and pinned-buffer reuse.  Returns the batch's last span.
    """
    rt, machine, cfg = ctx.rt, ctx.machine, ctx.config
    lane = stream.name
    prev = tuple(deps)
    for a_off, b_off, size in ctx.plan.chunks(batch):
        nb = size * ELEM

        def stage_in(a_off=a_off, nb=nb):
            copy_payload(pinned_in, 0, ctx.A, a_off * ELEM, nb)

        staged = yield from machine.host_memcpy(
            nb, threads=cfg.memcpy_threads, label="A->Stage", lane=lane,
            work=stage_in, deps=prev)
        ev = yield from rt.memcpy_async(dev, pinned_in, nb,
                                        MemcpyKind.HOST_TO_DEVICE, stream,
                                        dst_off=b_off * ELEM, deps=(staged,))
        sync = yield from stream.synchronize(deps=(staged,))
        if ctx.bus is not None:   # no kwargs built per chunk without one
            ctx.phase("chunk.htod", batch=batch.index, gpu=batch.gpu,
                      elements=size)
        prev = (sync if sync is not None else ev.value,)
    ctx.phase("batch.staged", batch=batch.index, gpu=batch.gpu,
              elements=batch.size)
    yield from rt.sort_async(dev, batch.size, stream, deps=prev)
    # No explicit sync: the DtoH below queues behind the sort in-stream.
    last = prev[0]
    stage_prev: tuple = ()
    for a_off, b_off, size in ctx.plan.chunks(batch):
        nb = size * ELEM
        ev = yield from rt.memcpy_async(pinned_out, dev, nb,
                                        MemcpyKind.DEVICE_TO_HOST, stream,
                                        src_off=b_off * ELEM,
                                        deps=stage_prev)
        sync = yield from stream.synchronize()
        dtoh_done = sync if sync is not None else ev.value

        def stage_out(a_off=a_off, nb=nb):
            copy_payload(ctx.W, a_off * ELEM, pinned_out, 0, nb)

        last = yield from machine.host_memcpy(
            nb, threads=cfg.memcpy_threads, label="Stage->W", lane=lane,
            work=stage_out, deps=(dtoh_done,))
        stage_prev = (last,)  # pinned_out reuse: next DtoH waits for it
    ctx.finish_run(batch, producer=last)
    return last


# ---------------------------------------------------------------------------
# CPU-side merging
# ---------------------------------------------------------------------------

def merge_pair_in_w(ctx: RunContext, first: SortedRun, second: SortedRun,
                    out: SortedRun) -> None:
    """Functional work of one pair merge: merge ``first`` and ``second``
    into the front of B, then copy the result back over their W slots,
    which ``out`` (``SortedRun.pair(first, second)``) tiles."""
    # B is free: every approach writes it only after its last pair merge.
    keys = ctx.B.data[:out.size]
    pieces = first.pieces(ctx) + second.pieces(ctx)
    if len(pieces) == 2:
        merge_two(*pieces, out=keys)
    else:   # GPUMERGE merging a run that a non-adjacent pair left in two
        multiway_merge(pieces, out=keys)
    out.store(ctx, keys)


def pair_merge_scheduler(ctx: RunContext):
    """Process: PIPEMERGE's pipelined pair-wise merging (Sec. III-D3).

    Takes sorted, b_s-sized batches off the completion queue two at a
    time and pair-merges them while the GPUs keep sorting, up to the
    plan's quota; never merges the output of a previous merge.  Returns
    the list of merged :class:`SortedRun` s.
    """
    merged: list[SortedRun] = []
    quota = ctx.plan.pairwise_merges
    while len(merged) < quota:
        first = yield ctx.sorted_runs.get()
        second = yield ctx.sorted_runs.get()
        out = SortedRun.pair(first, second)
        ctx.phase("merge.started", kind="pair", index=len(merged),
                  elements=out.size)

        def work(first=first, second=second, out=out):
            if ctx.functional:
                merge_pair_in_w(ctx, first, second, out)

        span = yield from ctx.machine.host_merge(
            out.size, k=2, threads=ctx.pipeline_merge_threads,
            label=f"pairmerge[{len(merged)}]", lane="cpu.pipeline",
            category=CAT.PAIRMERGE, work=work,
            deps=(first.producer_id, second.producer_id))
        out.producer_id = span
        merged.append(out)
        ctx.obs.incr("pair_merges.completed")
        ctx.phase("merge.done", kind="pair", index=len(merged) - 1,
                  elements=out.size)
    return merged


def final_multiway(ctx: RunContext, extra_runs: _t.Sequence[SortedRun] = ()):
    """Process: the final multiway merge of all remaining sorted runs
    (batches and pair-merged runs, all in W) into B.  The simulated
    merge is k-way over the runs; functionally it merges their W
    slices, each of which is sorted on its own.

    With a single run this degenerates to a parallel copy W -> B.
    """
    runs: list[SortedRun] = list(extra_runs)
    while True:
        ok, item = ctx.sorted_runs.try_get()
        if not ok:
            break
        runs.append(item)
    if not runs:
        raise RuntimeError("final merge invoked with no sorted runs")
    total = sum(r.size for r in runs)
    if total != ctx.plan.n:
        raise RuntimeError(
            f"sorted runs cover {total} of {ctx.plan.n} elements")

    # The merge consumes every run, so it depends on every producer: the
    # buffer-handoff edges W -> merge of the span DAG.
    producers = tuple(r.producer_id for r in runs if r.producer_id is not None)

    ctx.phase("merge.started", kind="multiway", k=len(runs),
              elements=total)
    if len(runs) == 1:
        run = runs[0]

        def copy_work(run=run):
            if ctx.functional:
                np.concatenate(run.pieces(ctx), out=ctx.B.data)

        yield from ctx.machine.host_memcpy(
            total * ELEM, threads=ctx.merge_threads, label="W->B",
            lane="cpu.merge", work=copy_work, deps=producers)
        ctx.phase("merge.done", kind="multiway", k=1, elements=total)
        return

    def work():
        if ctx.functional:
            multiway_merge([p for r in runs for p in r.pieces(ctx)],
                           out=ctx.B.data)

    yield from ctx.machine.host_merge(
        total, k=len(runs), threads=ctx.merge_threads,
        label=f"multiway(k={len(runs)})", lane="cpu.merge",
        category=CAT.MERGE, work=work, deps=producers)
    ctx.phase("merge.done", kind="multiway", k=len(runs), elements=total)
