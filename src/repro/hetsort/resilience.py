"""Recovery policies over injected faults (graceful degradation).

The counterpart of :mod:`repro.sim.faults`: that module decides *when*
operations fail, this one decides *what the pipelines do about it*.

Three layers, all deterministic and all charged to the simulated clock:

1. **Bounded retries** -- :class:`RetryPolicy` governs how transient
   faults (PCIe transfer errors, pinned/device allocation failures) are
   re-attempted with exponential backoff.  Transfers and pinned
   allocations retry inside :class:`~repro.hw.machine.Machine`; the
   synchronous ``cudaMalloc`` retries here via :func:`retry_call`.
   Every backoff is a ``Retry`` span and a ``retry.attempt`` event.

2. **CPU fallback** -- when a batch's GPU path is exhausted
   (:class:`~repro.errors.RetryExhaustedError`) or its device died
   (:class:`~repro.errors.GpuLostError`), :func:`cpu_fallback_batch`
   sorts the batch's slice of ``A`` with the CPU samplesort instead, so
   the run still produces a verified sorted permutation.

3. **Replanning** -- BLINEMULTI redistributes a dead GPU's remaining
   batches round-robin onto surviving workers
   (:func:`replan_batches`, published as ``degrade.replan``); GPUMERGE
   routes merge pairs around dead devices.

Genuine capacity exhaustion (a real ``CudaOutOfMemory``) is *never*
retried or degraded -- the pipeline keeps failing loudly, exactly as the
pre-fault-injection tests pin.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.errors import (TRANSIENT_FAULTS, FaultPlanError, GpuLostError,
                          ReproError, RetryExhaustedError)
from repro.hetsort.context import RunContext
from repro.hetsort.plan import Batch
from repro.kernels.samplesort import sample_sort

__all__ = ["RetryPolicy", "DEGRADED", "retry_call", "cpu_fallback_batch",
           "drain_stream", "free_surviving", "replan_batches"]

#: Errors that mark a batch's GPU path as unrecoverable: the approaches
#: degrade to the CPU fallback (or replan) instead of crashing.
DEGRADED = (RetryExhaustedError, GpuLostError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with simulated exponential backoff.

    ``max_attempts`` counts total tries of one operation (so at most
    ``max_attempts - 1`` backoffs).  The ``attempt``-th backoff sleeps
    ``base_backoff_s * multiplier ** (attempt - 1)`` seconds, capped at
    ``max_backoff_s`` -- *simulated* seconds, charged to the sim clock
    and traced as ``Retry`` spans.
    """

    max_attempts: int = 4
    base_backoff_s: float = 100e-6
    multiplier: float = 2.0
    max_backoff_s: float = 10e-3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultPlanError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise FaultPlanError("backoff times must be >= 0")
        if self.multiplier < 1:
            raise FaultPlanError(
                f"backoff multiplier must be >= 1, got {self.multiplier}")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.max_backoff_s,
                   self.base_backoff_s * self.multiplier ** (attempt - 1))


def retry_call(machine, call: _t.Callable[[], _t.Any], what: str,
               lane: str, deps: _t.Sequence = ()):
    """Process: run a *synchronous* runtime call (e.g. ``cudaMalloc``),
    retrying injected transient faults under the machine's retry policy.
    The call itself is instantaneous; only the backoffs are charged.
    Returns the call's value."""
    attempt = 1
    deps = tuple(deps)
    while True:
        try:
            return call()
        except TRANSIENT_FAULTS as exc:
            policy = machine.retry
            if policy is None or attempt >= policy.max_attempts:
                raise RetryExhaustedError(
                    f"{what}: failed after {attempt} attempt(s)") from exc
            span = yield from machine.retry_backoff(what, lane, attempt,
                                                    deps)
            deps = (span,)
            attempt += 1


def cpu_fallback_batch(ctx: RunContext, batch: Batch, out, *, reason: str,
                       lane: str = "cpu.fallback", deps: _t.Sequence = (),
                       finish: bool = False):
    """Process: sort one batch on the CPU after its GPU path was
    exhausted.  Functionally a samplesort of the batch's slice of ``A``
    written straight into ``out`` (B or W); charged as a ``CPUSort`` at
    the platform's reference thread count.  With ``finish`` the batch is
    recorded as a sorted run (for pipelines whose GPU path would have
    done so itself).  Returns the recorded span's id."""
    threads = ctx.machine.platform.reference_threads

    def work():
        if ctx.functional:
            src = ctx.A.view(batch.offset_bytes, batch.nbytes)
            dst = out.view(batch.offset_bytes, batch.nbytes)
            dst[:] = sample_sort(src, threads=threads)

    span = yield from ctx.machine.cpu_sort(
        batch.size, threads=threads,
        label=f"fallback::samplesort[{batch.index}]", lane=lane,
        work=work, deps=deps)
    ctx.obs.incr("batches.degraded")
    if finish:
        ctx.finish_run(batch, producer=span)
    return span


def drain_stream(stream):
    """Process: settle the stream's in-flight tail op, swallowing its
    failure and clearing the stream's sticky error (the caller is
    already degrading).  Leaves the stream reusable for the next
    batch."""
    tail = stream._tail
    if tail is not None and not tail.processed:
        try:
            yield tail
        except ReproError:
            pass
    stream._error = None


def free_surviving(ctx: RunContext, pinned_in=None, pinned_out=None,
                   dev=None) -> None:
    """Release whichever worker buffers were actually allocated (a
    degraded worker may hold only a subset)."""
    for buf in (pinned_in, pinned_out):
        if buf is not None and not buf.freed:
            ctx.rt.free_host(buf)
    if dev is not None and not dev.freed:
        ctx.rt.free(dev)


def replan_batches(ctx: RunContext, approach: str, gpu: int,
                   queues: dict, active: dict) -> bool:
    """Redistribute a dead worker's remaining batches round-robin onto
    surviving active workers (published as ``degrade.replan``).

    Returns True when survivors took the work; False leaves the batches
    in the dead worker's queue for its own CPU fallback.  Synchronous
    (no yields), so the hand-off is atomic in the cooperative sim.
    """
    queue = queues[gpu]
    survivors = [g for g in sorted(queues) if g != gpu and active.get(g)]
    if not queue:
        return bool(survivors)
    if not survivors:
        ctx.degrade("replan.no_survivors", approach=approach, gpu=gpu,
                    batches=[b.index for b in queue])
        return False
    moved = []
    i = 0
    while queue:
        b = queue.popleft()
        queues[survivors[i % len(survivors)]].append(b)
        moved.append(b.index)
        i += 1
    ctx.degrade("replan", approach=approach, gpu=gpu, batches=moved,
                survivors=survivors)
    return True
