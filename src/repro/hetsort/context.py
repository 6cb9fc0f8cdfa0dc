"""Shared run context for the sorting approaches.

A :class:`RunContext` carries the simulated machine, the CUDA runtime, the
plan and the three host buffers of Sec. III-C:

* ``A`` -- the unsorted input,
* ``W`` -- working memory that receives the sorted batches,
* ``B`` -- the final output.

In functional mode they are backed by real numpy arrays and the identical
approach code moves real data.  A pair merge writes its merged run back
over its inputs' slots in ``W`` (:class:`SortedRun`), through the front
of ``B``, which no approach writes before its last step, so a
functional sort holds ``A``, ``W``, ``B`` and the staging and device
arrays.  Every one of them except ``A`` (the caller's input) and ``B``
(which becomes the caller's output) is drawn from a
:class:`HostWorkspace`.  A sorter hands its runs the arrays of its last
finished functional run, so a steady stream of sorts takes no fresh
pages; a context built without one gets an empty workspace and
allocates everything afresh.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.cuda import PageableBuffer, Runtime
from repro.hetsort.config import SortConfig
from repro.hetsort.plan import Batch, SortPlan
from repro.hw.machine import Machine
from repro.obs.counters import MetricsRecorder
from repro.obs.events import EV
from repro.sim import Store, Trace
from repro.sim.engine import Environment

__all__ = ["HostWorkspace", "RunContext", "SortedRun"]


class HostWorkspace:
    """Spare float64 host arrays for functional runs: a free list keyed
    by length.  :meth:`take` hands out a held array of the asked length,
    or a new one; an array is handed out at most once.

    Arrays of one length are handed out in the order they were given,
    so a run shaped like the one that drew them gets each array back in
    the same role, even where roles share a length (``W`` and the
    device arrays when n = 2 b_s; DESIGN.md §11)."""

    def __init__(self, arrays: _t.Iterable[np.ndarray] = ()) -> None:
        #: Per length, the held arrays with the next one to hand out last.
        self._free: dict[int, list[np.ndarray]] = {}
        for arr in reversed(list(arrays)):
            self._free.setdefault(len(arr), []).append(arr)

    def take(self, n: int) -> np.ndarray:
        free = self._free.get(n)
        return free.pop() if free else np.empty(n, dtype=np.float64)

    def arrays(self) -> list[np.ndarray]:
        """The arrays held now, per length in the order they go out."""
        return [arr for free in self._free.values() for arr in free[::-1]]


@dataclass
class SortedRun:
    """A sorted unit awaiting a merge: a batch in its ``W`` slot, or the
    output of a pair merge, written back over its inputs' slots.

    ``slices`` are the run's ``W`` slots as ``(element offset, length)``
    pairs in address order, contiguous ones coalesced; the run's keys
    fill them in that order.  A pair of adjacent slots becomes one
    slice; a pair that is not adjacent (runs can complete out of
    address order, e.g. after a retry) stays two."""

    size: int                      #: elements
    slices: tuple[tuple[int, int], ...] = ()   #: W slots, address order
    #: Trace span id of the operation that completed this run (the last
    #: staging copy / DtoH / pair merge).  Consumers of the run record it
    #: as a causal dependency -- the buffer-handoff edge of the span DAG.
    producer_id: int | None = None

    @classmethod
    def pair(cls, first: "SortedRun", second: "SortedRun") -> "SortedRun":
        """The run that merging ``first`` and ``second`` leaves in W: it
        tiles exactly their slots."""
        slices: list[tuple[int, int]] = []
        for off, size in sorted(first.slices + second.slices):
            if slices and sum(slices[-1]) == off:
                slices[-1] = (slices[-1][0], slices[-1][1] + size)
            else:
                slices.append((off, size))
        return cls(size=first.size + second.size, slices=tuple(slices))

    def pieces(self, ctx: "RunContext") -> list[np.ndarray]:
        """Functional views of the run's W slices, in run order (empty in
        timing-only mode)."""
        if ctx.W.data is None:
            return []
        return [ctx.W.data[off:off + size] for off, size in self.slices]

    def store(self, ctx: "RunContext", keys: np.ndarray) -> None:
        """Copy the run's sorted ``keys`` into its W slices."""
        done = 0
        for piece in self.pieces(ctx):
            piece[:] = keys[done:done + len(piece)]
            done += len(piece)


class RunContext:
    """Everything an approach needs while it executes.

    In functional mode it also owns the run's host arrays: ``W`` and
    every staging and device array come from :meth:`host_array` (the
    workspace), and :attr:`host_arrays` lists them in draw order, which
    is what the sorter keeps afterwards."""

    def __init__(self, env: Environment, machine: Machine, rt: Runtime,
                 plan: SortPlan, config: SortConfig,
                 data: np.ndarray | None = None,
                 workspace: HostWorkspace | None = None) -> None:
        self.env = env
        self.machine = machine
        self.rt = rt
        self.plan = plan
        self.config = config
        self.trace: Trace = machine.trace
        self.functional = data is not None
        self.workspace = (workspace if workspace is not None
                          else HostWorkspace())
        #: Every array this run drew through :meth:`host_array`.
        self.host_arrays: list[np.ndarray] = []

        n = plan.n
        # Reserve the ~3n pageable working set (A + W + B, Sec. III-C) so
        # pinned staging allocations are checked against what remains.
        machine.reserve_host(plan.host_bytes)
        if data is not None:
            if len(data) != n:
                raise ValueError(f"data has {len(data)} elements, plan {n}")
            data = np.ascontiguousarray(data, dtype=np.float64)
        self.A = PageableBuffer.for_elements(n, data=data, name="A")
        self.W = PageableBuffer.for_elements(n, data=self.host_array(n),
                                             name="W")
        # B becomes the caller's output, so it is never a workspace array.
        self.B = PageableBuffer.for_elements(
            n, data=np.empty(n) if self.functional else None, name="B")

        #: Completed batches, fed to the PIPEMERGE scheduler / final merge.
        self.sorted_runs: Store = Store(env, name="sorted_runs")
        self.meta: dict = {}

        #: Live counters/gauges for this run (queue depths, in-flight
        #: transfers, batch progress).  Recording is passive -- it never
        #: schedules events -- so the timeline is identical with or
        #: without observers reading the series.  A
        #: :class:`~repro.hetsort.session.RunSession` makes it the
        #: machine's recorder and probes ``sorted_runs`` into it.
        self.obs: MetricsRecorder = MetricsRecorder(clock=lambda: env._now)

        #: Streaming telemetry: an optional
        #: :class:`~repro.obs.events.EventBus` (set by the run session
        #: when the caller passed sinks).  ``None`` keeps every
        #: :meth:`phase` call a single truthiness check.
        self.bus = None

    def phase(self, name: str, **data) -> None:
        """Publish a pipeline phase-transition event (no-op without a
        bus; never touches the simulated timeline)."""
        if self.bus is not None:
            self.bus.emit(EV.PHASE, name=name, **data)

    def degrade(self, reason: str, **data) -> None:
        """Record a graceful-degradation decision (CPU fallback, batch
        replan onto survivors).  Counted in ``meta`` for post-hoc
        assertions and published as a ``degrade.replan`` event when a
        bus is attached; never touches the simulated timeline."""
        self.meta.setdefault("degrades", []).append(
            {"reason": reason, **data})
        self.obs.incr("degrade.events")
        if self.bus is not None:
            self.bus.emit(EV.DEGRADE, reason=reason, **data)

    # -- derived knobs -------------------------------------------------------

    @property
    def total_streams(self) -> int:
        return self.plan.n_streams * self.plan.n_gpus

    @property
    def merge_threads(self) -> int:
        """Threads of the final multiway merge."""
        cfg = self.config.merge_threads
        return cfg if cfg is not None \
            else self.machine.platform.reference_threads

    @property
    def pipeline_merge_threads(self) -> int:
        """Threads of each pipelined pair-wise merge: by default all cores
        except one per stream worker (the staging threads).  PARMEMCPY's
        extra copy threads are short-lived bursts, so they time-share with
        the merge rather than reducing its thread count."""
        cfg = self.config.pipeline_merge_threads
        if cfg is not None:
            return max(1, cfg)
        return max(1, self.machine.platform.cpu.cores - self.total_streams)

    # -- functional-layer helpers ---------------------------------------------

    def host_array(self, n: int) -> np.ndarray | None:
        """A float64 array of ``n`` elements from the workspace (``None``
        in timing-only mode).  Its contents are undefined, as
        ``np.empty``'s are."""
        if not self.functional:
            return None
        arr = self.workspace.take(n)
        self.host_arrays.append(arr)
        return arr

    def finish_run(self, batch: Batch, producer=None) -> SortedRun:
        """Record a batch as sorted-and-landed-in-W.

        ``producer`` is the trace span id of the operation that completed
        the run; downstream merges depend on it causally.
        """
        run = SortedRun(size=batch.size,
                        slices=((batch.offset, batch.size),),
                        producer_id=producer)
        self.obs.incr("batches.completed")
        self.phase("run.sorted", batch=batch.index, gpu=batch.gpu,
                   elements=batch.size, producer=producer)
        self.sorted_runs.put(run)
        return run
