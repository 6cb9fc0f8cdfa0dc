"""The simulated GPU device.

Models the three properties of a GPU that the paper's evaluation depends on:

* **bounded global memory** -- allocations are tracked against
  :attr:`GPUSpec.mem_bytes`; exceeding it raises
  :class:`~repro.errors.CudaOutOfMemory` (this is what forces batching
  when n_b > 1);
* **one kernel at a time** -- Thrust sort kernels from different streams
  serialise on the device's compute engine;
* **dual copy engines** -- one DMA engine per direction, so an HtoD and a
  DtoH transfer overlap on one device, but two HtoD transfers queue.
"""

from __future__ import annotations

import typing as _t

from repro.errors import CudaInvalidValue, CudaOutOfMemory, GpuLostError
from repro.hw.spec import GPUSpec
from repro.sim import CAT, Resource, Trace
from repro.sim.engine import Environment

__all__ = ["SimGPU", "Direction"]


class Direction:
    """PCIe transfer directions (Table I: HtoD / DtoH)."""

    HTOD = "HtoD"
    DTOH = "DtoH"
    ALL = (HTOD, DTOH)


class SimGPU:
    """One GPU device on the simulated platform."""

    def __init__(self, env: Environment, spec: GPUSpec, index: int,
                 trace: Trace) -> None:
        self.env = env
        self.spec = spec
        self.index = index
        self.trace = trace
        self.kernel_engine = Resource(env, 1, name=f"gpu{index}.kernel")
        self.copy_engines = {
            d: Resource(env, 1, name=f"gpu{index}.copy.{d}")
            for d in Direction.ALL
        }
        self.mem_used = 0
        self.mem_high_water = 0
        #: Fault injection: True once the device suffered a fatal error
        #: (see :meth:`mark_lost`).  Never set on healthy runs.
        self.lost = False

    # -- fault injection --------------------------------------------------

    def mark_lost(self, exc: BaseException | None = None) -> None:
        """Simulate a fatal device failure (ECC error, driver death).

        Subsequent allocations and kernels on this device raise
        :class:`~repro.errors.GpuLostError`; requests already *queued* on
        its engines are failed immediately so nothing blocks forever on a
        dead device.  Operations holding an engine mid-flight complete:
        the loss takes effect at operation boundaries.
        """
        if self.lost:
            return
        self.lost = True
        if exc is None:
            exc = GpuLostError(
                f"gpu{self.index} ({self.spec.model}) was lost")
        self.kernel_engine.fail_waiters(exc)
        for engine in self.copy_engines.values():
            engine.fail_waiters(exc)

    def _check_alive(self, what: str) -> None:
        if self.lost:
            raise GpuLostError(
                f"gpu{self.index} ({self.spec.model}) is lost; "
                f"cannot {what}")

    # -- memory -----------------------------------------------------------

    @property
    def mem_free(self) -> int:
        """Unallocated global-memory bytes."""
        return self.spec.mem_bytes - self.mem_used

    def alloc(self, nbytes: int) -> None:
        """Account a device allocation (raises on OOM)."""
        self._check_alive("cudaMalloc")
        if nbytes < 0:
            raise CudaInvalidValue(f"negative allocation {nbytes}")
        if nbytes > self.mem_free:
            raise CudaOutOfMemory(
                f"gpu{self.index} ({self.spec.model}): requested {nbytes} B "
                f"with only {self.mem_free} B of {self.spec.mem_bytes} B free")
        self.mem_used += nbytes
        self.mem_high_water = max(self.mem_high_water, self.mem_used)

    def free(self, nbytes: int) -> None:
        """Release a device allocation."""
        if nbytes < 0 or nbytes > self.mem_used:
            raise CudaInvalidValue(
                f"gpu{self.index}: freeing {nbytes} B with "
                f"{self.mem_used} B allocated")
        self.mem_used -= nbytes

    # -- compute ------------------------------------------------------------

    def sort(self, n: int, label: str = "thrust::sort",
             work: _t.Callable[[], None] | None = None,
             deps: _t.Sequence = ()):
        """Process: run a Thrust-style sort of ``n`` 64-bit elements.

        Thrust sorts out of place, temporarily doubling the footprint of
        the input (Sec. III-B); the caller is responsible for having
        allocated that scratch space (the batch planner enforces it).

        ``work`` (functional layer) runs when the kernel completes.
        Returns the recorded span's id; serialisation of kernels from
        different streams on the single compute engine is recorded as a
        causal edge from the kernel that freed it.
        """
        self._check_alive("launch a sort kernel")
        grant = self.kernel_engine.request()
        waited = not grant.triggered
        yield grant
        start = self.env.now
        yield self.env.timeout(self.spec.sort_seconds(n))
        causal = [d for d in deps if d is not None]
        if waited and self.kernel_engine.last_release_span is not None:
            causal.append(self.kernel_engine.last_release_span)
        span = self.trace.record(CAT.GPUSORT, label, start, self.env.now,
                                 lane=f"gpu{self.index}", elements=n,
                                 nbytes=8.0 * n, deps=causal)
        self.kernel_engine.release(span=span)
        if work is not None:
            work()
        return span
