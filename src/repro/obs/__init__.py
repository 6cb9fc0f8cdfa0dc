"""Observability: derived metrics, live counters and run analyses.

The paper's entire argument is about *where time goes* -- how much of the
makespan each component occupies (Fig. 7), how much overhead the related
work's accounting hides (Fig. 8), and how close a pipeline gets to the
analytical lower bound (Fig. 11).  This package turns the raw
:class:`~repro.sim.trace.Trace` spans and in-sim state into those
quantities:

* :mod:`repro.obs.metrics` -- derived metrics computed *after* a run:
  per-lane busy/idle utilisation, the pairwise category-overlap matrix,
  overlap efficiency (critical-path lower bound / makespan), per-link
  throughput and pipeline-bubble detection;
* :mod:`repro.obs.counters` -- live counters and gauges sampled *during*
  a run (queue depths, pinned-buffer occupancy, in-flight transfers),
  recorded as deterministic time series;
* :mod:`repro.obs.causal` -- the causal span DAG: critical-path
  extraction with per-category/per-lane attribution, per-span slack, and
  shift-based what-if rescheduling (``k = 1`` is an exact fixed point);
* :mod:`repro.obs.diff` -- structural trace diffing (run reports, report
  diffs, the CI regression gate's verdict logic);
* :mod:`repro.obs.sweep` -- the sweep harness: run an (approach x n x
  streams x platform) grid and persist every run as one canonical JSONL
  ledger line (byte-stable for a deterministic sweep);
* :mod:`repro.obs.conformance` -- model-vs-measured conformance: the
  lower-bound prediction per run, critical-path residual attribution
  (exact by construction), per-group fitted slopes with R² vs. the
  paper's, and anomaly flags;
* :mod:`repro.obs.profile` -- wall-clock stats of the *real* numpy
  kernels behind a zero-overhead-when-disabled toggle, read by
  ``perfbench`` (never affects the simulated timeline or the sorted
  output; import it as a module, it is not re-exported here);
* :mod:`repro.obs.memory` -- the memory observatory: a byte-exact
  allocation ledger over the simulated ``cudaMalloc`` /
  ``cudaMallocHost`` paths (occupancy timelines, high-watermarks, leak
  detection at run end) and the analytic capacity planner behind
  ``repro plan-mem`` (predict peak device/pinned occupancy from the
  plan, reject infeasible configurations before any simulation);
* :mod:`repro.obs.flows` -- the interconnect observatory: a byte-stable
  per-flow bandwidth grant ledger over the fluid-flow network
  (piecewise-constant granted-rate timelines whose integral reproduces
  the bytes moved bit for bit), per-link utilization/saturation and
  flows-in-flight series, and contention attribution that decomposes
  each transfer's duration into isolation time plus slowdown charged to
  the specific concurrent flows sharing its links -- summing back to
  the measured duration bit for bit;
* :mod:`repro.obs.events` / :mod:`repro.obs.sinks` -- the typed
  publish/subscribe telemetry bus and its shipped sinks: byte-stable
  ``repro.events/v1`` JSONL structured logs (replayable back into a
  trace), rolling live aggregation with ETA, a throttled terminal
  renderer (``repro run --live`` / ``repro watch``), and a stall/
  deadline watchdog.  Sinks are passive: attaching or detaching any of
  them never perturbs the simulated timeline or the canonical report.
"""

from repro.obs.archive import (ARCHIVE_SCHEMA, append_entries,
                               archive_summary, build_manifest, entry_id,
                               entry_from_ledger, entry_from_result,
                               fingerprint, load_archive, make_entry,
                               manifest_path, validate_archive)
from repro.obs.causal import (CausalGraphError, SpanGraph,
                              critical_path_report, sensitivity_report,
                              whatif_report)
from repro.obs.conformance import (attach_conformance, conformance_record,
                                   conformance_summary, fit_line,
                                   group_conformance, residual_attribution)
from repro.obs.counters import CounterSeries, MetricsRecorder
from repro.obs.diff import (canonical_json, diff_reports, load_report,
                            render_diff, report_from_trace, run_report,
                            write_report)
from repro.obs.events import (EV, EVENTS_SCHEMA, EventBus, Sink,
                              TelemetryEvent)
from repro.obs.flows import (CONTENTION_SCHEMA, FLOWS_SCHEMA,
                             FlowLedger, attribute_contention,
                             concurrency_series, flow_rate_counters,
                             link_peaks, link_timelines, link_utilization,
                             reconcile_flow_spans, settled_split,
                             verify_contention, verify_rate_integral)
from repro.obs.memory import (MEMORY_SCHEMA, MEMPLAN_SCHEMA,
                              MEMORY_CONFORMANCE_SCHEMA, PLAN_TOLERANCE,
                              MemoryLedger, measured_peaks,
                              memory_conformance, plan_memory)
from repro.obs.metrics import (category_overlap_matrix, compute_metrics,
                               critical_path_lower_bound, detect_bubbles,
                               lane_metrics, link_throughput,
                               overlap_efficiency)
from repro.obs.sinks import (JsonlSink, LiveAggregator, TtySink,
                             WatchdogSink, read_events, replay_events,
                             validate_event_log, validate_events)
from repro.obs.sweep import (GRIDS, ledger_record, load_ledger, run_sweep,
                             sweep_points, write_ledger)
from repro.obs.trends import (TRENDS_SCHEMA, classify_miss,
                              compare_entries, detect_changepoints, ewma,
                              metric_series, ratchet_proposal,
                              series_trend, trend_summary)

__all__ = [
    "CounterSeries", "MetricsRecorder",
    "compute_metrics", "lane_metrics", "category_overlap_matrix",
    "overlap_efficiency", "critical_path_lower_bound", "link_throughput",
    "detect_bubbles",
    "SpanGraph", "CausalGraphError", "critical_path_report",
    "whatif_report", "sensitivity_report",
    "run_report", "report_from_trace", "diff_reports", "render_diff",
    "write_report", "load_report", "canonical_json",
    "GRIDS", "sweep_points", "run_sweep", "ledger_record",
    "write_ledger", "load_ledger",
    "residual_attribution", "conformance_record", "attach_conformance",
    "fit_line", "group_conformance", "conformance_summary",
    "EV", "EVENTS_SCHEMA", "TelemetryEvent", "Sink", "EventBus",
    "JsonlSink", "LiveAggregator", "TtySink", "WatchdogSink",
    "read_events", "replay_events", "validate_events",
    "validate_event_log",
    "ARCHIVE_SCHEMA", "fingerprint", "entry_id", "make_entry",
    "entry_from_result", "entry_from_ledger", "load_archive",
    "append_entries", "manifest_path", "build_manifest",
    "archive_summary", "validate_archive",
    "TRENDS_SCHEMA", "ewma", "detect_changepoints", "series_trend",
    "ratchet_proposal", "classify_miss", "metric_series",
    "trend_summary", "compare_entries",
    "MEMORY_SCHEMA", "MEMPLAN_SCHEMA", "MEMORY_CONFORMANCE_SCHEMA",
    "PLAN_TOLERANCE", "MemoryLedger", "plan_memory", "measured_peaks",
    "memory_conformance",
    "FLOWS_SCHEMA", "CONTENTION_SCHEMA", "FlowLedger",
    "link_timelines", "link_utilization", "link_peaks",
    "concurrency_series", "settled_split", "attribute_contention",
    "verify_contention", "verify_rate_integral", "reconcile_flow_spans",
    "flow_rate_counters",
]
