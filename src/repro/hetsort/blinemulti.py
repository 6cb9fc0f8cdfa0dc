"""BLINEMULTI: the blocking baseline for inputs exceeding GPU memory
(Sec. III-D1).

Workflow: ``A -> [Stage ->] HtoD -> GPUSort -> DtoH -> [Stage ->] W ->
Merge -> B``.  Transfers block the host and no CPU/GPU or copy overlap
happens; merging starts only after *all* batches are sorted -- the load
imbalance of Fig. 1 that the pipelined approaches attack.

With multiple GPUs, one blocking host thread drives each GPU (its batches
still processed strictly serially within the thread).

Degraded modes (fault injection): each worker owns a deque of batches.
A transient-retry exhaustion degrades only the affected batch to the CPU
samplesort fallback; a lost GPU replans the worker's remaining batches
round-robin onto surviving workers (``degrade.replan``), or -- with no
survivors -- the dead worker CPU-sorts its own queue.
"""

from __future__ import annotations

from collections import deque

from repro.cuda import ELEM
from repro.errors import GpuLostError, RetryExhaustedError
from repro.hetsort.config import Staging
from repro.hetsort.context import RunContext
from repro.hetsort.resilience import (DEGRADED, cpu_fallback_batch,
                                      drain_stream, free_surviving,
                                      replan_batches, retry_call)
from repro.hetsort.workers import (alloc_worker_buffers, final_multiway,
                                   pageable_blocking_batch,
                                   staged_blocking_batch)

__all__ = ["run_blinemulti"]


def _gpu_worker(ctx: RunContext, gpu: int, queues: dict, active: dict):
    """Process: serially sort every batch queued for this GPU."""
    queue = queues[gpu]
    stream = ctx.rt.create_stream(gpu)
    lane = f"host.gpu{gpu}"
    ctx.obs.incr("workers.active")
    ctx.phase("worker.start", approach="blinemulti", gpu=gpu,
              batches=len(queue))
    pinned = ctx.config.staging == Staging.PINNED
    pin_in = pin_out = dev = None
    prev: tuple = ()
    gpu_ok = True
    try:
        try:
            if pinned:
                pin_in, pin_out, dev = yield from alloc_worker_buffers(
                    ctx, gpu, tag=f"g{gpu}")
                prev = (pin_in.alloc_span, pin_out.alloc_span)
            else:
                data = ctx.host_array(2 * ctx.plan.batch_size)
                dev = yield from retry_call(
                    ctx.machine,
                    lambda: ctx.rt.malloc(
                        2 * ctx.plan.batch_size * ELEM, gpu_index=gpu,
                        name=f"dev.g{gpu}", data=data),
                    what=f"cudaMalloc[dev.g{gpu}]", lane=lane)
        except DEGRADED as exc:
            # Worker never got its buffers: hand the whole queue to the
            # survivors (or fall back to CPU below, batch by batch).
            gpu_ok = False
            active[gpu] = False
            ctx.degrade("worker.degraded", approach="blinemulti", gpu=gpu,
                        error=type(exc).__name__)
            replan_batches(ctx, "blinemulti", gpu, queues, active)

        while queue:
            batch = queue.popleft()
            if gpu_ok:
                try:
                    if pinned:
                        last = yield from staged_blocking_batch(
                            ctx, batch, pin_in, pin_out, dev, stream,
                            ctx.W, lane, deps=prev)
                    else:
                        last = yield from pageable_blocking_batch(
                            ctx, batch, dev, stream, ctx.W, lane,
                            deps=prev)
                    ctx.finish_run(batch, producer=last)
                    prev = (last,)
                    continue
                except GpuLostError:
                    # Device died: replan everything still queued here
                    # (including this batch) onto the survivors.
                    gpu_ok = False
                    active[gpu] = False
                    yield from drain_stream(stream)
                    queue.appendleft(batch)
                    replan_batches(ctx, "blinemulti", gpu, queues, active)
                    continue
                except RetryExhaustedError as exc:
                    # Transient budget spent on this batch only; the
                    # device is healthy, so just this batch degrades.
                    yield from drain_stream(stream)
                    ctx.degrade("cpu.fallback", approach="blinemulti",
                                batch=batch.index, gpu=gpu,
                                error=type(exc).__name__)
                    last = yield from cpu_fallback_batch(
                        ctx, batch, ctx.W, reason=type(exc).__name__,
                        deps=prev)
                    ctx.finish_run(batch, producer=last)
                    prev = (last,)
                    continue
            ctx.degrade("cpu.fallback", approach="blinemulti",
                        batch=batch.index, gpu=gpu, error="GpuLostError")
            last = yield from cpu_fallback_batch(ctx, batch, ctx.W,
                                                 reason="GpuLostError",
                                                 deps=prev)
            ctx.finish_run(batch, producer=last)
            prev = (last,)
    finally:
        free_surviving(ctx, pin_in, pin_out, dev)
        # No yields between the final `while queue` check and this flag:
        # a dying peer either replans onto us before we exit the loop or
        # sees us inactive -- never in between.
        active[gpu] = False
    ctx.obs.incr("workers.active", -1)
    ctx.phase("worker.done", approach="blinemulti", gpu=gpu)


def run_blinemulti(ctx: RunContext):
    """Process: the BLINEMULTI approach."""
    gpus_with_work = sorted({b.gpu for b in ctx.plan.batches})
    queues = {g: deque(b for b in ctx.plan.batches if b.gpu == g)
              for g in gpus_with_work}
    active = {g: True for g in gpus_with_work}
    workers = [ctx.env.process(_gpu_worker(ctx, g, queues, active),
                               name=f"blinemulti.gpu{g}")
               for g in gpus_with_work]
    yield ctx.env.all_of(workers)
    yield from final_multiway(ctx)
