"""The public facade: :class:`HeterogeneousSorter` and the CPU reference.

Both are thin callers of :class:`~repro.hetsort.session.RunSession`: a
sort plans first (so an infeasible input raises
:class:`~repro.errors.PlanError` before anything is built), then builds
its :class:`~repro.hetsort.context.RunContext` on the session's machine
and hands the approach runner to :meth:`RunSession.run`.

>>> from repro import HeterogeneousSorter, PLATFORM1
>>> import numpy as np
>>> sorter = HeterogeneousSorter(PLATFORM1, batch_size=25_000)
>>> data = np.random.default_rng(0).uniform(size=100_000)
>>> res = sorter.sort(data, approach="pipemerge")
>>> bool(np.all(res.output[:-1] <= res.output[1:]))
True
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.cuda import Runtime
from repro.errors import PlanError
from repro.hetsort.bline import run_bline
from repro.hetsort.blinemulti import run_blinemulti
from repro.hetsort.config import Approach, SortConfig
from repro.hetsort.context import HostWorkspace, RunContext
from repro.hetsort.gpumerge import run_gpumerge
from repro.hetsort.pipedata import run_pipedata
from repro.hetsort.pipemerge import run_pipemerge
from repro.hetsort.plan import make_plan
from repro.hetsort.result import SortResult
from repro.hetsort.session import RunSession
from repro.hetsort.validate import check_sorted_permutation
from repro.hw.platforms import PLATFORM1
from repro.hw.spec import PlatformSpec
from repro.kernels.samplesort import sample_sort
from repro.obs.counters import MetricsRecorder
from repro.obs.flows import FlowLedger
from repro.obs.memory import MemoryLedger
from repro.obs.metrics import compute_metrics

__all__ = ["HeterogeneousSorter", "APPROACH_RUNNERS", "cpu_reference_sort"]

APPROACH_RUNNERS: dict[str, _t.Callable[[RunContext], _t.Generator]] = {
    Approach.BLINE: run_bline,
    Approach.BLINEMULTI: run_blinemulti,
    Approach.PIPEDATA: run_pipedata,
    Approach.PIPEMERGE: run_pipemerge,
    Approach.GPUMERGE: run_gpumerge,
}


class HeterogeneousSorter:
    """Hybrid CPU/GPU sorter for data larger than GPU global memory.

    Parameters mirror the paper's knobs (Table I); every keyword of
    :class:`~repro.hetsort.config.SortConfig` is accepted.

    Parameters
    ----------
    platform:
        A :class:`~repro.hw.spec.PlatformSpec` (default PLATFORM1).
    n_gpus:
        How many of the platform's GPUs to use.
    **config_kw:
        Forwarded to :class:`SortConfig` (``approach``, ``n_streams``,
        ``batch_size``, ``pinned_elements``, ``memcpy_threads``, ...).
    """

    def __init__(self, platform: PlatformSpec = PLATFORM1,
                 n_gpus: int = 1, config: SortConfig | None = None,
                 **config_kw) -> None:
        if config is not None and config_kw:
            raise PlanError("pass either a SortConfig or keywords, not both")
        self.platform = platform
        self.n_gpus = n_gpus
        self.config = config if config is not None else SortConfig(**config_kw)
        #: The host arrays of the last finished functional run (W, the
        #: staging and device arrays), which the next functional run
        #: draws from instead of allocating.
        self.workspace = HostWorkspace()

    def sort(self, data: np.ndarray | None = None, n: int | None = None,
             approach: str | None = None, validate: bool = True,
             sinks: _t.Sequence = (), faults=None, retry=None,
             **overrides) -> SortResult:
        """Run one heterogeneous sort.

        Exactly one of ``data`` (functional mode: a float64 array that is
        really sorted) or ``n`` (timing-only mode: paper-scale inputs)
        must be given.  ``approach`` and any other config field may be
        overridden per call.

        ``sinks`` optionally attaches streaming-telemetry subscribers
        (:class:`~repro.obs.events.Sink`) for the run's event bus --
        spans, queue depths, counters and phase transitions are
        published live.  Sinks are passive observers: attaching any
        combination never changes the simulated timeline, the sorted
        output or the canonical run report (pinned by the determinism
        tests).

        ``faults`` optionally attaches a deterministic
        :class:`~repro.sim.faults.FaultPlan`; injected faults are
        retried, replanned or degraded to the CPU under ``retry`` (a
        :class:`~repro.hetsort.resilience.RetryPolicy`, defaulting to
        the standard one whenever a plan is attached).  An empty plan is
        exactly equivalent to no plan (pinned byte-for-byte by the
        fault-neutrality tests).
        """
        if (data is None) == (n is None):
            raise PlanError("pass exactly one of `data` or `n`")
        cfg = self.config
        if approach is not None:
            overrides = {**overrides, "approach": approach}
        if overrides:
            cfg = cfg.with_(**overrides)
        n_elems = int(n) if n is not None else len(data)

        plan = make_plan(n_elems, self.platform, cfg, n_gpus=self.n_gpus)
        session = RunSession(self.platform, self.n_gpus, sinks=sinks,
                             faults=faults, retry=retry)
        env, machine = session.env, session.machine
        ctx = RunContext(env, machine, Runtime(machine), plan, cfg,
                         data=data, workspace=self.workspace)
        ctx.meta.update(session.run(
            APPROACH_RUNNERS[cfg.approach](ctx), cfg.approach, ctx=ctx,
            start=dict(platform=self.platform.name, approach=cfg.approach,
                       n=plan.n, n_batches=plan.n_batches,
                       batch_size=plan.batch_size, n_gpus=plan.n_gpus,
                       n_streams=plan.n_streams,
                       functional=ctx.functional),
            end=lambda: dict(elapsed_s=env.now,
                             makespan_s=machine.trace.makespan(),
                             n_spans=len(machine.trace.spans))))

        output = ctx.B.data
        if validate and data is not None:
            check_sorted_permutation(ctx.A.data, output, scratch=ctx.W.data)
        if ctx.functional:
            # The finished run's arrays replace what the workspace held;
            # a run that raised never gets here and its arrays are dropped.
            self.workspace = HostWorkspace(ctx.host_arrays)
        return SortResult(
            platform_name=self.platform.name,
            approach=cfg.approach,
            config=cfg,
            plan=plan,
            elapsed=env.now,
            trace=machine.trace,
            output=output,
            meta=dict(ctx.meta),
            recorder=ctx.obs,
            memory_ledger=machine.memory,
            flow_ledger=machine.net.ledger,
            metrics_builder=_metrics_builder(
                machine.trace, env.now, ctx.obs, machine.memory,
                machine.net.ledger, env.processed_events),
        )


def _metrics_builder(trace, elapsed: float, recorder,
                     memory_ledger: MemoryLedger | None = None,
                     flow_ledger: FlowLedger | None = None,
                     processed_events: int = 0) -> _t.Callable[[], dict]:
    """The deferred body of ``SortResult.metrics`` for one finished run.

    It closes over the run's outputs only -- never the ``Environment`` or
    the ``Machine`` -- so a result does not keep the event heap and the
    device graph alive.  Runs without ledgers (the CPU reference) get
    the trace-derived metrics alone.
    """
    def build() -> dict:
        metrics = compute_metrics(trace, elapsed=elapsed,
                                  counters=recorder.summary(elapsed))
        if memory_ledger is None:
            return metrics
        metrics["memory"] = memory_ledger.summary()
        metrics["flows"] = flow_ledger.summary()
        # Engine throughput, in simulated terms only (wall-clock events
        # per second would break run-to-run metric determinism).
        metrics["engine"] = {
            "processed_events": processed_events,
            "events_per_sim_s": (processed_events / elapsed
                                 if elapsed > 0 else 0.0),
        }
        return metrics
    return build


def cpu_reference_sort(platform: PlatformSpec = PLATFORM1,
                       data: np.ndarray | None = None,
                       n: int | None = None,
                       threads: int | None = None) -> SortResult:
    """The parallel CPU reference implementation (Sec. IV-C): the GNU
    parallel-mode sort at the platform's reference thread count.

    Functional mode really sorts ``data`` with the sample-sort stand-in.
    """
    if (data is None) == (n is None):
        raise PlanError("pass exactly one of `data` or `n`")
    n_elems = int(n) if n is not None else len(data)
    threads = platform.reference_threads if threads is None else threads

    session = RunSession(platform, n_gpus=1)
    env, machine = session.env, session.machine
    recorder = MetricsRecorder(clock=lambda: env.now)
    out: dict = {}

    def work():
        if data is not None:
            out["output"] = sample_sort(
                np.asarray(data, dtype=np.float64), threads=threads)

    def runner():
        yield from machine.cpu_sort(n_elems, threads=threads,
                                    label="gnu::sort", work=work)

    session.run(runner(), "cpu_reference", recorder=recorder)
    return SortResult(
        platform_name=platform.name,
        approach="cpu:gnu",
        config=SortConfig(),
        plan=None,
        elapsed=env.now,
        trace=machine.trace,
        output=out.get("output"),
        meta={"threads": threads, "n": n_elems},
        recorder=recorder,
        metrics_builder=_metrics_builder(machine.trace, env.now, recorder),
    )
