"""The result of a heterogeneous sort run."""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.hetsort.config import SortConfig
from repro.hetsort.plan import SortPlan
from repro.sim import CAT, Trace

__all__ = ["SortResult"]


@dataclass
class SortResult:
    """Everything one run produced.

    ``elapsed`` is the true end-to-end response time *including every
    overhead* (pinned allocation, staging copies, synchronisation) -- the
    quantity the paper argues must be reported (Sec. IV-E).
    """

    platform_name: str
    approach: str
    config: SortConfig
    plan: SortPlan | None
    elapsed: float
    trace: Trace
    output: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    #: The run's :class:`~repro.obs.counters.MetricsRecorder` (full
    #: counter time series, for Perfetto counter-track export).
    recorder: _t.Any = None
    #: The run's :class:`~repro.obs.memory.MemoryLedger` (full
    #: allocation history, for ``repro mem`` timelines and the HTML
    #: memory panel).
    memory_ledger: _t.Any = None
    #: The run's :class:`~repro.obs.flows.FlowLedger` (per-flow granted
    #: bandwidth timelines, for ``repro flows`` and the HTML link
    #: panels).
    flow_ledger: _t.Any = None
    #: Builds :attr:`metrics` on its first read; dropped once it has run.
    metrics_builder: _t.Callable[[], dict] | None = field(
        default=None, repr=False, compare=False)
    _metrics: dict | None = field(default=None, init=False, repr=False,
                                  compare=False)

    @property
    def metrics(self) -> dict:
        """Derived observability metrics (see :mod:`repro.obs.metrics`):
        per-lane utilisation, the category-overlap matrix, overlap
        efficiency, link throughput, live counter summaries and the
        memory, flow and engine blocks.

        Built on the first read and cached as a plain ``dict``, so a run
        nobody asks for metrics pays nothing for them; writes into it
        (``metrics["conformance"]``) persist like any dict's.
        """
        if self._metrics is None:
            build, self.metrics_builder = self.metrics_builder, None
            self._metrics = build() if build is not None else {}
        return self._metrics

    # -- component accounting ------------------------------------------------

    @property
    def breakdown(self) -> dict[str, float]:
        """Per-component total busy time (categories of Table I)."""
        return self.trace.breakdown()

    def component(self, category: str) -> float:
        """Total time of one span category."""
        return self.trace.total(category)

    @property
    def related_work_end_to_end(self) -> float:
        """The end-to-end time as computed by [Stehle & Jacobsen 2017]
        (Sec. IV-E): only HtoD + DtoH + GPUSort, with each component's
        wall-clock collapsed over overlaps; host-side staging, pinned
        allocation and synchronisation are *omitted*."""
        return sum(self.trace.busy_time([c]) for c in CAT.RELATED_WORK)

    @property
    def missing_overhead(self) -> float:
        """What the related-work accounting leaves out of this run."""
        return max(0.0, self.elapsed - self.related_work_end_to_end)

    def speedup_over(self, other: "SortResult | float") -> float:
        """Speedup of this run relative to another run (or a raw time)."""
        t = other.elapsed if isinstance(other, SortResult) else float(other)
        return t / self.elapsed

    # -- observability -------------------------------------------------------

    @property
    def lane_utilization(self) -> dict[str, float]:
        """Per-lane ``busy / makespan`` from the metrics dict."""
        return {lane: m["utilization"]
                for lane, m in self.metrics.get("lanes", {}).items()}

    @property
    def overlap_efficiency(self) -> float:
        """Critical-path lower bound / makespan (1.0 = perfectly
        overlapped; see :func:`repro.obs.metrics.overlap_efficiency`)."""
        return self.metrics.get("overlap_efficiency", 1.0)

    def overlap(self, cat_a: str, cat_b: str) -> float:
        """Seconds categories ``cat_a`` and ``cat_b`` ran concurrently."""
        return self.metrics.get("overlap_matrix", {}) \
            .get(cat_a, {}).get(cat_b, 0.0)

    def causal_graph(self):
        """The run's causal span DAG (validated on construction)."""
        from repro.obs.causal import SpanGraph
        return SpanGraph.from_trace(self.trace)

    def critical_path_report(self) -> dict:
        """Critical-path attribution (see
        :func:`repro.obs.causal.critical_path_report`)."""
        from repro.obs.causal import critical_path_report
        return critical_path_report(self.causal_graph())

    @property
    def conformance(self) -> dict | None:
        """The run's model-conformance record (predicted vs. measured
        makespan, critical-path residual attribution), if
        :func:`repro.obs.conformance.attach_conformance` has run --
        sweeps attach one to every run.  None otherwise."""
        return self.metrics.get("conformance")

    @property
    def memory(self) -> dict | None:
        """The run's memory summary (per-GPU/pinned peak occupancy,
        alloc/free counts, leak verdict) from the byte-exact allocation
        ledger (see :mod:`repro.obs.memory`).  None for runs without a
        ledger (e.g. the CPU reference)."""
        return self.metrics.get("memory")

    @property
    def flows(self) -> dict | None:
        """The run's interconnect summary (flow count, bytes moved,
        per-link peak utilization, total contention seconds) from the
        per-flow bandwidth ledger (see :mod:`repro.obs.flows`).  None
        for runs without a ledger (e.g. the CPU reference)."""
        return self.metrics.get("flows")

    @property
    def throughput(self) -> float:
        """Sorted elements per second, end to end."""
        if self.plan is not None:
            n = self.plan.n
        else:
            n = len(self.output) if self.output is not None else 0
        return n / self.elapsed if self.elapsed > 0 else float("inf")

    def to_dict(self) -> dict:
        """A JSON-serialisable record of this run (for sweep logs)."""
        out = {
            "platform": self.platform_name,
            "approach": self.approach,
            "elapsed_s": self.elapsed,
            "throughput_el_per_s": self.throughput,
            "related_work_end_to_end_s": self.related_work_end_to_end,
            "missing_overhead_s": self.missing_overhead,
            "breakdown_s": self.breakdown,
            "metrics": self.metrics,
            "config": {
                "n_streams": self.config.n_streams,
                "batch_size": self.config.batch_size,
                "pinned_elements": self.config.pinned_elements,
                "memcpy_threads": self.config.memcpy_threads,
                "staging": self.config.staging,
            },
        }
        if self.plan is not None:
            out["plan"] = {
                "n": self.plan.n,
                "n_batches": self.plan.n_batches,
                "batch_size": self.plan.batch_size,
                "n_gpus": self.plan.n_gpus,
                "pairwise_merges": self.plan.pairwise_merges,
            }
        return out

    def summary(self) -> str:
        """One-paragraph human-readable description."""
        lines = [
            f"{self.approach} on {self.platform_name}: "
            f"{self.elapsed:.4f} s end-to-end",
        ]
        if self.plan is not None:
            lines.append(
                f"  n={self.plan.n:,}  n_b={self.plan.n_batches}  "
                f"b_s={self.plan.batch_size:,}  n_s={self.plan.n_streams}  "
                f"n_gpu={self.plan.n_gpus}")
        bd = self.breakdown
        if bd:
            parts = ", ".join(f"{k}={v:.4f}s" for k, v in bd.items())
            lines.append(f"  components: {parts}")
        return "\n".join(lines)
