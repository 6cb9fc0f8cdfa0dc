"""The assembled simulated platform: CPU cores + GPUs + interconnects.

:class:`Machine` instantiates, for one :class:`~repro.hw.spec.PlatformSpec`:

* a FIFO core pool (:class:`~repro.sim.resources.Resource`) for host threads;
* a :class:`~repro.sim.bandwidth.FlowNetwork` with three links:
  ``host_bus`` (DRAM copy bandwidth), ``pcie_htod`` and ``pcie_dtoh``
  (per-direction PCIe at the root complex, shared by all GPUs);
* one :class:`~repro.hw.gpu.SimGPU` per device.

It exposes the primitive timed operations out of which the heterogeneous
sort approaches are composed.  Every primitive is a *process* (generator)
that can carry an optional ``work`` callable -- the functional layer -- so
identical control flow drives both timing-only and real-data runs.
"""

from __future__ import annotations

import typing as _t

from repro.errors import (CudaOutOfMemory, GpuLostError, PinnedAllocFault,
                          RetryExhaustedError, SimulationError,
                          TransferFaultError)
from repro.hw.gpu import Direction, SimGPU
from repro.hw.spec import PlatformSpec
from repro.obs.events import EV
from repro.sim import CAT, FlowNetwork, Resource, Trace
from repro.sim.engine import Environment

__all__ = ["Machine"]


class Machine:
    """A running simulated instance of a platform."""

    def __init__(self, env: Environment, platform: PlatformSpec,
                 n_gpus: int | None = None, trace: Trace | None = None
                 ) -> None:
        self.env = env
        self.platform = platform
        self.trace = trace if trace is not None else Trace()

        n_gpus = platform.n_gpus if n_gpus is None else n_gpus
        if not 1 <= n_gpus <= platform.n_gpus:
            raise SimulationError(
                f"{platform.name} has {platform.n_gpus} GPU(s); "
                f"requested {n_gpus}")

        self.cores = Resource(env, platform.cpu.cores, name="cpu.cores")
        self.net = FlowNetwork(env)
        self.host_bus = self.net.add_link(
            "host_bus", platform.hostmem.copy_bus_bw)
        self.pcie = {
            Direction.HTOD: self.net.add_link("pcie.htod",
                                              platform.pcie.peak_bw),
            Direction.DTOH: self.net.add_link("pcie.dtoh",
                                              platform.pcie.peak_bw),
        }
        # Constant link lists, so the network validates each route once:
        # staging copies and merges on the host bus; a DMA crosses its
        # PCIe direction and host DRAM (twice per byte when pageable).
        host, pageable = self.host_bus, platform.pcie.pageable_hostmem_factor
        self._host_route = (host,)
        self._dma_routes = {
            (direction, pinned): (link, (host, 1.0 if pinned else pageable))
            for direction, link in self.pcie.items()
            for pinned in (True, False)}
        self.gpus = [SimGPU(env, spec, i, self.trace)
                     for i, spec in enumerate(platform.gpus[:n_gpus])]
        self.pinned_bytes = 0
        #: Pageable working set (A + W + B) reserved by the run; pinned
        #: allocations must fit in what remains of host DRAM.
        self.host_reserved = 0
        #: Optional :class:`~repro.obs.counters.MetricsRecorder`; when
        #: set, the machine samples pinned-buffer occupancy and in-flight
        #: DMA transfers as counter time series (the run session also
        #: probes core-pool pressure into it).
        self.recorder = None
        self._inflight = {Direction.HTOD: 0, Direction.DTOH: 0}
        self._inflight_names = {direction: f"pcie.{direction}.inflight"
                                for direction in self._inflight}
        #: Fault injection: an optional
        #: :class:`~repro.sim.faults.FaultInjector` whose hooks the
        #: instrumented primitives consult.  ``None`` (healthy runs)
        #: costs one ``is None`` check per operation.
        self.faults = None
        #: Recovery: an optional
        #: :class:`~repro.hetsort.resilience.RetryPolicy` (duck-typed:
        #: ``max_attempts`` + ``backoff_s(attempt)``) governing bounded
        #: retries of injected transient faults.
        self.retry = None
        #: Streaming telemetry: an optional
        #: :class:`~repro.obs.events.EventBus` for ``retry.attempt``
        #: events (set by :class:`~repro.hetsort.session.RunSession`).
        self.bus = None
        #: Memory observatory: an optional
        #: :class:`~repro.obs.memory.MemoryLedger` the runtime's
        #: allocation/release paths record into.  ``None`` (bare
        #: machines) costs one ``is None`` check per operation.
        self.memory = None

    def _gauge(self, name: str, value: float) -> None:
        if self.recorder is not None:
            self.recorder.sample(name, value)

    def reserve_host(self, nbytes: int) -> None:
        """Account a pageable working-set reservation (free of charge in
        time; raises when host DRAM is exhausted)."""
        if nbytes < 0:
            raise SimulationError(f"negative reservation {nbytes}")
        if (self.host_reserved + self.pinned_bytes + nbytes
                > self.platform.hostmem.capacity_bytes):
            raise CudaOutOfMemory(
                f"host reservation of {nbytes} B exceeds capacity "
                f"({self.host_reserved} B already reserved)")
        self.host_reserved += nbytes

    def release_host(self, nbytes: int) -> None:
        """Return a pageable working-set reservation made with
        :meth:`reserve_host` (a finished service job hands its A/W/B
        arrays back to the pool).  Single runs never release -- their
        reservation lives for the whole simulation."""
        if nbytes < 0 or nbytes > self.host_reserved:
            raise SimulationError(
                f"releasing {nbytes} reserved bytes with "
                f"{self.host_reserved} reserved")
        self.host_reserved -= nbytes

    # ------------------------------------------------------------------
    # Host-side primitives
    # ------------------------------------------------------------------

    def host_memcpy(self, nbytes: float, threads: int = 1,
                    label: str = "memcpy", lane: str = "host",
                    work: _t.Callable[[], None] | None = None,
                    deps: _t.Sequence = ()):
        """Process: a host-to-host copy (pageable <-> pinned staging).

        With ``threads == 1`` this is ``std::memcpy`` (rate capped at the
        per-core copy bandwidth); with more threads it is the PARMEMCPY
        optimisation -- the rate cap scales linearly with threads but the
        flow then competes with DMA and merges on the shared host bus,
        which is exactly the effect discussed in Sec. IV-F.

        Returns the recorded span's id.
        """
        if threads < 1:
            raise SimulationError(f"memcpy threads must be >= 1: {threads}")
        threads = min(threads, self.platform.cpu.cores)
        # Only the orchestrating host thread occupies a core slot: OpenMP
        # copy helpers are short bursts that time-share with whatever else
        # runs (they are bounded by the rate cap and the shared bus, which
        # is where the real contention lives).
        grant = self.cores.request(1)
        waited = not grant.triggered
        yield grant
        start = self.env._now
        cap = threads * self.platform.hostmem.per_core_copy_bw
        flow = yield self.net.transfer(nbytes, self._host_route, cap=cap,
                                       label=label)
        # Trace.record drops None deps and duplicates.
        span = self.trace.record(
            CAT.MCPY, label, start, self.env._now, lane=lane, nbytes=nbytes,
            meta=(("threads", threads),),
            deps=(*deps, self.cores.last_release_span if waited else None))
        if self.net.ledger is not None:
            self.net.ledger.bind_span(flow, span)
        self.cores.release(1, span=span)
        if work is not None:
            work()
        return span

    def host_merge(self, n_elements: int, k: int, threads: int,
                   label: str = "merge", lane: str = "cpu",
                   category: str = CAT.MERGE,
                   work: _t.Callable[[], None] | None = None,
                   deps: _t.Sequence = ()):
        """Process: merge ``n_elements`` from ``k`` sorted runs on the CPU.

        Modelled as a memory-bus flow so that pipelined pair-wise merges
        (PIPEMERGE) contend with concurrent staging copies and DMA.
        Returns the recorded span's id.
        """
        model = self.platform.merge
        threads = min(threads, self.platform.cpu.cores)
        grant = self.cores.request(threads)
        waited = not grant.triggered
        yield grant
        start = self.env._now
        if model.spawn_overhead_s > 0:
            yield self.env.timeout(model.spawn_overhead_s * threads)
        flow = yield self.net.transfer(
            model.flow_bytes(n_elements, k), self._host_route,
            cap=model.flow_cap(threads, k), label=label)
        span = self.trace.record(
            category, label, start, self.env._now, lane=lane,
            elements=n_elements, nbytes=8.0 * n_elements,
            meta={"k": k, "threads": threads},
            deps=(*deps, self.cores.last_release_span if waited else None))
        if self.net.ledger is not None:
            self.net.ledger.bind_span(flow, span)
        self.cores.release(threads, span=span)
        if work is not None:
            work()
        return span

    def cpu_sort(self, n: int, threads: int | None = None,
                 label: str = "cpu_sort", lane: str = "cpu",
                 work: _t.Callable[[], None] | None = None,
                 deps: _t.Sequence = ()):
        """Process: a CPU-only sort with the GNU parallel-mode library
        (the reference implementation).

        Time-based (Amdahl + spawn overhead, Fig. 4 model); holds the
        requested cores for its duration.  Returns the recorded span's id.
        """
        model = self.platform.sort_model("gnu")
        threads = self.platform.reference_threads if threads is None \
            else threads
        threads = min(threads, self.platform.cpu.cores, model.max_threads)
        grant = self.cores.request(threads)
        waited = not grant.triggered
        yield grant
        start = self.env._now
        yield self.env.timeout(model.seconds(n, threads))
        span = self.trace.record(
            CAT.CPUSORT, label, start, self.env._now, lane=lane, elements=n,
            meta={"library": "gnu", "threads": threads},
            deps=(*deps, self.cores.last_release_span if waited else None))
        self.cores.release(threads, span=span)
        if work is not None:
            work()
        return span

    def pinned_alloc(self, nbytes: float, label: str = "cudaMallocHost",
                     deps: _t.Sequence = ()):
        """Process: allocate pinned host memory (cudaMallocHost).

        Costs the affine time of Sec. IV-E1 and counts against host DRAM.
        Returns the recorded span's id.

        Injected transient failures (``alloc.pinned`` faults) are retried
        here with the machine's retry policy -- each drawn fault charges
        a backoff to the sim clock; exhausting the budget raises
        :class:`~repro.errors.RetryExhaustedError`.  A genuine capacity
        exhaustion is never retried.
        """
        if nbytes < 0:
            raise SimulationError(f"negative pinned allocation {nbytes}")
        deps = tuple(deps)
        if self.faults is not None:
            attempt = 1
            while self.faults.on_pinned_alloc() is not None:
                exc = PinnedAllocFault(
                    f"injected cudaMallocHost failure ({label})")
                if self.retry is None or attempt >= self.retry.max_attempts:
                    raise RetryExhaustedError(
                        f"{label}: pinned allocation failed after "
                        f"{attempt} attempt(s)") from exc
                span = yield from self.retry_backoff(label, "host",
                                                      attempt, deps)
                deps = (span,)
                attempt += 1
        if (self.pinned_bytes + self.host_reserved + nbytes
                > self.platform.hostmem.capacity_bytes):
            raise CudaOutOfMemory(
                f"pinned allocation of {nbytes} B exceeds host capacity "
                f"({self.host_reserved} B reserved for A/W/B, "
                f"{self.pinned_bytes} B already pinned)")
        start = self.env._now
        yield self.env.timeout(
            self.platform.hostmem.pinned_alloc_seconds(nbytes))
        self.pinned_bytes += nbytes
        self._gauge("host.pinned_bytes", self.pinned_bytes)
        return self.trace.record(CAT.PINNED_ALLOC, label, start,
                                 self.env._now, lane="host", nbytes=nbytes,
                                 deps=deps)

    def pinned_free(self, nbytes: float) -> None:
        """Release pinned host memory (modelled as free of charge)."""
        if nbytes < 0 or nbytes > self.pinned_bytes:
            raise SimulationError(
                f"freeing {nbytes} pinned bytes with {self.pinned_bytes} "
                "allocated")
        self.pinned_bytes -= nbytes
        self._gauge("host.pinned_bytes", self.pinned_bytes)

    # ------------------------------------------------------------------
    # Fault injection / retries
    # ------------------------------------------------------------------

    def retry_backoff(self, what: str, lane: str, attempt: int,
                       deps: _t.Sequence = ()):
        """Process: one simulated exponential-backoff pause before a
        retry.  Charged to the sim clock, recorded as a ``Retry`` span
        (chained into the caller's causal deps) and published as a
        ``retry.attempt`` event.  Returns the span's id."""
        delay = self.retry.backoff_s(attempt)
        start = self.env._now
        if delay > 0:
            yield self.env.timeout(delay)
        span = self.trace.record(CAT.RETRY, f"backoff[{what}]", start,
                                 self.env._now, lane=lane,
                                 meta={"attempt": attempt},
                                 deps=deps)
        if self.bus is not None:
            self.bus.emit(EV.RETRY, what=what, attempt=attempt,
                          backoff_s=delay, lane=lane)
        return span

    def _transfer_faults(self, gpu: SimGPU, direction: str, what: str,
                         lane: str, deps: tuple):
        """Process: consume injected faults for one DMA transfer.

        Each drawn transient fault fails the attempt *before* the copy
        engine engages and charges the policy's backoff; device loss is
        permanent and surfaces immediately.  Returns the (possibly
        retry-extended) causal deps of the eventual real attempt.
        """
        attempt = 1
        while True:
            if gpu.lost:
                raise GpuLostError(
                    f"gpu{gpu.index} is lost; cannot start {what}")
            spec = self.faults.on_transfer(gpu.index, direction)
            if spec is None:
                return deps
            exc = TransferFaultError(
                f"injected transient {direction} fault on gpu{gpu.index} "
                f"({what})")
            if self.retry is None or attempt >= self.retry.max_attempts:
                raise RetryExhaustedError(
                    f"{what} on gpu{gpu.index}: transfer failed after "
                    f"{attempt} attempt(s)") from exc
            span = yield from self.retry_backoff(what, lane, attempt, deps)
            deps = (span,)
            attempt += 1

    # ------------------------------------------------------------------
    # PCIe transfers
    # ------------------------------------------------------------------

    def pcie_transfer(self, gpu: SimGPU, nbytes: float, direction: str,
                      pinned: bool = True, label: str = "",
                      lane: str = "", work: _t.Callable[[], None] | None = None,
                      deps: _t.Sequence = ()):
        """Process: one DMA transfer between host and ``gpu``.

        Waits for the device's per-direction copy engine, then flows
        through the shared per-direction PCIe link *and* the host memory
        bus (DMA reads/writes host DRAM).  Pageable transfers are slower
        (driver staging) and touch host DRAM twice per byte.  Returns the
        recorded span's id; serialisation on the copy engine is recorded as a
        causal edge from the transfer that freed the engine.

        Injected transient faults (``pcie.transient``) fail the attempt
        before the DMA engages and are retried with the machine's retry
        policy; a lost device raises
        :class:`~repro.errors.GpuLostError` immediately.
        """
        if direction not in Direction.ALL:
            raise SimulationError(f"bad transfer direction {direction!r}")
        deps = tuple(deps)
        if self.faults is not None:
            deps = yield from self._transfer_faults(
                gpu, direction, label or direction,
                lane or f"gpu{gpu.index}.{direction}", deps)
        engine = gpu.copy_engines[direction]
        grant = engine.request()
        waited = not grant.triggered
        yield grant
        start = self.env._now
        inflight = self._inflight
        inflight[direction] += 1
        self._gauge(self._inflight_names[direction], inflight[direction])
        flow = yield self.net.transfer(
            nbytes, self._dma_routes[direction, bool(pinned)],
            cap=self.platform.pcie.flow_cap(pinned),
            label=label or f"{direction}@gpu{gpu.index}")
        inflight[direction] -= 1
        self._gauge(self._inflight_names[direction], inflight[direction])
        category = CAT.HTOD if direction == Direction.HTOD else CAT.DTOH
        span = self.trace.record(
            category, label or direction, start, self.env._now,
            lane=lane or f"gpu{gpu.index}.{direction}", nbytes=nbytes,
            deps=(*deps, engine.last_release_span if waited else None))
        if self.net.ledger is not None:
            self.net.ledger.bind_span(flow, span)
        engine.release(span=span)
        if work is not None:
            work()
        return span
