"""BLINE: the baseline for inputs that fit on the GPU(s) (Sec. III-D).

One batch per GPU, blocking transfers, default-stream semantics.  With a
single GPU no merging is needed and the sorted data lands directly in B;
with ``n_GPU >= 2`` (the Fig. 11 two-GPU lower-bound configuration) each
GPU sorts ``n / n_GPU`` and one multiway merge combines the halves.

Two data paths, selected by ``config.staging``:

* ``pinned``  -- chunked through a pinned staging buffer (the Sec. IV-E
  reproduction of the related work's naive approach, and the
  configuration the lower-bound model of Sec. IV-G is derived from);
* ``pageable`` -- plain blocking ``cudaMemcpy`` (Sec. III-D's literal
  description).
"""

from __future__ import annotations

from repro.cuda import ELEM
from repro.hetsort.config import Staging
from repro.hetsort.context import RunContext
from repro.hetsort.resilience import (DEGRADED, cpu_fallback_batch,
                                      drain_stream, free_surviving,
                                      retry_call)
from repro.hetsort.workers import (alloc_worker_buffers, final_multiway,
                                   pageable_blocking_batch,
                                   staged_blocking_batch)

__all__ = ["run_bline"]


def _gpu_worker(ctx: RunContext, gpu: int):
    """Process: sort this GPU's single batch with blocking calls.

    If the batch's GPU path is exhausted (retries spent or device lost)
    the batch degrades to the CPU samplesort fallback; the run still
    completes sorted."""
    batches = [b for b in ctx.plan.batches if b.gpu == gpu]
    assert len(batches) == 1, "BLINE plans one batch per GPU"
    batch = batches[0]
    out = ctx.B if ctx.plan.n_gpus == 1 else ctx.W
    stream = ctx.rt.create_stream(gpu)
    lane = f"host.gpu{gpu}"
    ctx.obs.incr("workers.active")
    ctx.phase("worker.start", approach="bline", gpu=gpu, batches=1)
    pin_in = pin_out = dev = None
    try:
        if ctx.config.staging == Staging.PINNED:
            pin_in, pin_out, dev = yield from alloc_worker_buffers(
                ctx, gpu, tag=f"g{gpu}")
            last = yield from staged_blocking_batch(
                ctx, batch, pin_in, pin_out, dev, stream, out, lane,
                deps=(pin_in.alloc_span, pin_out.alloc_span))
        else:
            data = ctx.host_array(2 * batch.size)
            dev = yield from retry_call(
                ctx.machine,
                lambda: ctx.rt.malloc(2 * batch.size * ELEM, gpu_index=gpu,
                                      name=f"dev.g{gpu}", data=data),
                what=f"cudaMalloc[dev.g{gpu}]", lane=lane)
            last = yield from pageable_blocking_batch(ctx, batch, dev,
                                                      stream, out, lane)
    except DEGRADED as exc:
        yield from drain_stream(stream)
        ctx.degrade("cpu.fallback", approach="bline", batch=batch.index,
                    gpu=gpu, error=type(exc).__name__)
        last = yield from cpu_fallback_batch(ctx, batch, out,
                                             reason=type(exc).__name__)
    finally:
        free_surviving(ctx, pin_in, pin_out, dev)
    if ctx.plan.n_gpus > 1:
        ctx.finish_run(batch, producer=last)
    else:
        # Single GPU: the batch landed directly in B; count it anyway so
        # `batches.completed` reaches n_batches for every approach.
        ctx.obs.incr("batches.completed")
        ctx.phase("run.sorted", batch=batch.index, gpu=gpu,
                  elements=batch.size, producer=getattr(last, "id", None))
    ctx.obs.incr("workers.active", -1)
    ctx.phase("worker.done", approach="bline", gpu=gpu)


def run_bline(ctx: RunContext):
    """Process: the BLINE approach."""
    workers = [ctx.env.process(_gpu_worker(ctx, g), name=f"bline.gpu{g}")
               for g in range(ctx.plan.n_gpus)]
    yield ctx.env.all_of(workers)
    if ctx.plan.n_gpus > 1:
        yield from final_multiway(ctx)
    elif ctx.functional:
        # Single GPU: B was filled directly by the staging path.
        pass
