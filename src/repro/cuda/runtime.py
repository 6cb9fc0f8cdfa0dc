"""The simulated CUDA runtime: the API the sorting approaches program
against.

The surface intentionally mirrors the real CUDA host API the paper uses:

===========================  ===========================================
Paper / CUDA                 Here
===========================  ===========================================
``cudaMalloc``               :meth:`Runtime.malloc`
``cudaMallocHost``           :meth:`Runtime.malloc_host` (costs time!)
``cudaMemcpy`` (blocking)    :meth:`Runtime.memcpy`
``cudaMemcpyAsync``          :meth:`Runtime.memcpy_async`
``cudaStreamCreate``         :meth:`Runtime.create_stream`
``cudaStreamSynchronize``    ``yield from stream.synchronize()``
``cudaDeviceSynchronize``    :meth:`Runtime.device_synchronize`
``thrust::sort``             :meth:`Runtime.sort_async`
===========================  ===========================================

All methods that take simulated time are generators to be driven with
``yield from`` inside a host process.  ``memcpy_async`` and ``sort_async``
return quickly (after the call overhead) with a completion
:class:`~repro.sim.events.Event`, exactly like their CUDA counterparts
return control to the host thread.

Semantic checks the real runtime enforces are enforced here too and are
exercised by the test suite: async copies require pinned host memory,
buffers must belong to the right device, ranges must stay in bounds, and
device allocations may not exceed global-memory capacity.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.cuda.buffers import (DeviceBuffer, PageableBuffer, PinnedBuffer,
                                copy_payload)
from repro.cuda.enums import MemcpyKind
from repro.cuda.stream import Stream
from repro.errors import CudaInvalidValue, DeviceAllocFault
from repro.hw.gpu import Direction
from repro.hw.machine import Machine

__all__ = ["Runtime"]

#: ``(span label, stream-op label)`` of an async copy, by direction.
_ASYNC_LABELS = {d: (f"cudaMemcpyAsync({d})", f"memcpy.{d}")
                 for d in Direction.ALL}


class Runtime:
    """Simulated CUDA runtime bound to one :class:`~repro.hw.machine.Machine`."""

    def __init__(self, machine: Machine,
                 sort_kernel: _t.Callable[[np.ndarray], None] | None = None
                 ) -> None:
        self.machine = machine
        self.env = machine.env
        self.trace = machine.trace
        self._streams: list[Stream] = []
        self._stream_counter = 0
        # Functional on-GPU sort.  Default: the ordered-key sort, bit-equal
        # to a radix sort; a custom kernel must leave its batch in that key
        # order (-0.0 before +0.0).  Imported lazily to keep layering acyclic.
        if sort_kernel is None:
            from repro.kernels.radix import sort_floats_inplace
            sort_kernel = sort_floats_inplace
        self.sort_kernel = sort_kernel

    # ------------------------------------------------------------------
    # Devices and streams
    # ------------------------------------------------------------------

    @property
    def n_gpus(self) -> int:
        return len(self.machine.gpus)

    def create_stream(self, gpu_index: int = 0) -> Stream:
        """``cudaStreamCreate`` on the given device."""
        self._check_gpu(gpu_index)
        s = Stream(self.env, gpu_index, self._stream_counter,
                   trace=self.trace,
                   sync_cost_s=self.machine.platform.runtime.stream_sync_s)
        self._stream_counter += 1
        self._streams.append(s)
        return s

    def device_synchronize(self, gpu_index: int | None = None):
        """Process: wait for every stream (of one device, or all)."""
        tails = [s._tail for s in self._streams
                 if (gpu_index is None or s.gpu_index == gpu_index)
                 and s._tail is not None and not s._tail.processed]
        if tails:
            yield self.env.all_of(tails)
        cost = self.machine.platform.runtime.device_sync_s
        if cost > 0:
            yield self.env.timeout(cost)

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------

    def malloc(self, nbytes: int, gpu_index: int = 0,
               name: str = "", data: np.ndarray | None = None
               ) -> DeviceBuffer:
        """``cudaMalloc``: account ``nbytes`` of device global memory.

        (The call itself is modelled as free; its hidden pinned-staging
        cost is discussed but not separately measured by the paper.)

        An injected ``alloc.device`` fault raises
        :class:`~repro.errors.DeviceAllocFault` (a transient
        ``CudaOutOfMemory``); the call is synchronous, so retry/backoff
        happens at the caller (see
        :func:`repro.hetsort.resilience.retry_call`).
        """
        self._check_gpu(gpu_index)
        # Buffers address devices by the machine's (possibly per-job)
        # index; the ledger, gauge and fault hook use the physical one.
        gpu = self.machine.gpus[gpu_index]
        faults = self.machine.faults
        if faults is not None and faults.on_device_alloc(gpu.index):
            raise DeviceAllocFault(
                f"injected cudaMalloc failure on gpu{gpu.index} ({name!r})")
        gpu.alloc(nbytes)
        mem = self.machine.memory
        if mem is not None:
            mem.device_alloc(gpu.index, nbytes, name=name)
        self.machine._gauge(f"gpu{gpu.index}.mem_bytes", gpu.mem_used)
        return DeviceBuffer(gpu_index, nbytes, data=data, name=name)

    def free(self, buf: DeviceBuffer) -> None:
        """``cudaFree``."""
        if buf.freed:
            raise CudaInvalidValue(f"double free of {buf.name!r}")
        gpu = self.machine.gpus[buf.gpu_index]
        gpu.free(buf.nbytes)
        buf.freed = True
        mem = self.machine.memory
        if mem is not None:
            mem.device_free(gpu.index, buf.nbytes, name=buf.name)
        self.machine._gauge(f"gpu{gpu.index}.mem_bytes", gpu.mem_used)

    def malloc_host(self, nbytes: int, name: str = "",
                    data: np.ndarray | None = None, deps=()):
        """Process: ``cudaMallocHost`` -- allocate pinned staging memory,
        charging the affine allocation cost (Sec. IV-E1).  Returns the
        :class:`PinnedBuffer` as the process value; the allocation's
        trace span id is attached as ``buf.alloc_span`` so the first use of
        the buffer can depend on it causally."""
        span = yield from self.machine.pinned_alloc(
            nbytes, label=name or "pinned", deps=deps)
        buf = PinnedBuffer(nbytes, data=data, name=name)
        buf.alloc_span = span
        mem = self.machine.memory
        if mem is not None:
            mem.pinned_alloc(nbytes, name=name, span=span)
        return buf

    def free_host(self, buf: PinnedBuffer) -> None:
        """``cudaFreeHost`` (modelled as free of charge)."""
        if buf.freed:
            raise CudaInvalidValue(f"double free of {buf.name!r}")
        self.machine.pinned_free(buf.nbytes)
        buf.freed = True
        mem = self.machine.memory
        if mem is not None:
            mem.pinned_free(buf.nbytes, name=buf.name)

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------

    def memcpy(self, dst, src, nbytes: int, kind: str,
               dst_off: int = 0, src_off: int = 0, lane: str = "host",
               deps=()):
        """Process: blocking ``cudaMemcpy`` -- the calling host thread
        does not resume until the copy completes (the BLINE /
        BLINEMULTI data-transfer mode, Sec. III-D).  Returns the copy's
        trace span id."""
        direction, gpu, pinned = self._classify(dst, src, nbytes, kind,
                                                dst_off, src_off)
        call = self.machine.platform.runtime.memcpy_blocking_call_s
        if call > 0:
            yield self.env.timeout(call)
        if direction is None:
            # HostToHost: a plain staging copy on the host bus.
            span = yield from self.machine.host_memcpy(
                nbytes, threads=1, label="cudaMemcpy(H2H)", lane=lane,
                work=lambda: copy_payload(dst, dst_off, src, src_off, nbytes),
                deps=deps)
        else:
            span = yield from self.machine.pcie_transfer(
                gpu, nbytes, direction, pinned=pinned,
                label=f"cudaMemcpy({direction})", lane=lane,
                work=lambda: copy_payload(dst, dst_off, src, src_off, nbytes),
                deps=deps)
        return span

    def memcpy_async(self, dst, src, nbytes: int, kind: str, stream: Stream,
                     dst_off: int = 0, src_off: int = 0, deps=()):
        """Process: ``cudaMemcpyAsync`` -- enqueue the copy on ``stream``
        and return its completion event after the (host-side) call
        overhead.  The host-memory end **must be pinned**, as in CUDA;
        otherwise :class:`~repro.errors.CudaInvalidValue` is raised.

        The completion event's value is the copy's trace span id.  Its deps
        combine the explicit ``deps`` (e.g. the staging copy that filled
        the pinned buffer) with the in-stream predecessor, read when the
        op actually starts."""
        direction, gpu, pinned = self._classify(dst, src, nbytes, kind,
                                                dst_off, src_off)
        if direction is None:
            raise CudaInvalidValue("memcpy_async is for host<->device copies")
        if not pinned:
            raise CudaInvalidValue(
                "cudaMemcpyAsync requires the host buffer to be pinned "
                f"(got {src.kind if direction == Direction.HTOD else dst.kind})")
        if gpu is not self.machine.gpus[stream.gpu_index]:
            raise CudaInvalidValue(
                f"stream on gpu{stream.gpu_index} cannot copy to/from "
                f"gpu{gpu.index}")
        call = self.machine.platform.runtime.memcpy_async_call_s
        if call > 0:
            yield self.env.timeout(call)
        explicit = tuple(deps)
        machine = self.machine
        label, op_label = _ASYNC_LABELS[direction]

        def op():
            return (yield from machine.pcie_transfer(
                gpu, nbytes, direction, pinned=True, label=label,
                lane=stream.name,
                work=lambda: copy_payload(dst, dst_off, src, src_off,
                                          nbytes),
                deps=(*explicit, stream.last_span)))

        return stream.submit(op, label=op_label)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def sort_async(self, buf: DeviceBuffer, n_elements: int, stream: Stream,
                   offset: int = 0, deps=()):
        """Process: launch ``thrust::sort`` over ``n_elements`` 64-bit keys
        of ``buf`` on ``stream``; returns the completion event after the
        kernel-launch overhead.  The completion event's value is the
        kernel's trace span id.

        In functional mode the elements are really sorted with the
        runtime's sort kernel (by default the ordered-key sort)."""
        nbytes = n_elements * 8
        buf.check_range(offset, nbytes)
        if buf.gpu_index != stream.gpu_index:
            raise CudaInvalidValue("sort stream is on a different device")
        gpu = self.machine.gpus[buf.gpu_index]
        call = self.machine.platform.runtime.kernel_launch_s
        if call > 0:
            yield self.env.timeout(call)
        explicit = tuple(deps)

        def work():
            view = buf.view(offset, nbytes)
            if view is not None:
                self.sort_kernel(view)

        def op():
            span = yield from gpu.sort(
                n_elements, label="thrust::sort", work=work,
                deps=(*explicit, stream.last_span))
            return span

        return stream.submit(op, label="sort")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_gpu(self, gpu_index: int) -> None:
        if not 0 <= gpu_index < len(self.machine.gpus):
            raise CudaInvalidValue(
                f"no such device {gpu_index} "
                f"(machine has {len(self.machine.gpus)})")

    def _classify(self, dst, src, nbytes, kind, dst_off, src_off):
        """Validate a copy and derive (direction, gpu, pinned)."""
        dst.check_range(dst_off, nbytes)
        src.check_range(src_off, nbytes)
        if kind == MemcpyKind.HOST_TO_DEVICE:
            if not isinstance(dst, DeviceBuffer) or isinstance(
                    src, DeviceBuffer):
                raise CudaInvalidValue("HtoD needs host src and device dst")
            gpu = self.machine.gpus[dst.gpu_index]
            return Direction.HTOD, gpu, isinstance(src, PinnedBuffer)
        if kind == MemcpyKind.DEVICE_TO_HOST:
            if not isinstance(src, DeviceBuffer) or isinstance(
                    dst, DeviceBuffer):
                raise CudaInvalidValue("DtoH needs device src and host dst")
            gpu = self.machine.gpus[src.gpu_index]
            return Direction.DTOH, gpu, isinstance(dst, PinnedBuffer)
        if kind == MemcpyKind.HOST_TO_HOST:
            if isinstance(dst, DeviceBuffer) or isinstance(src, DeviceBuffer):
                raise CudaInvalidValue("HtoH cannot involve device buffers")
            return None, None, True
        raise CudaInvalidValue(f"unknown memcpy kind {kind!r}")
