"""Structural trace diffing and the regression harness built on it.

A *run report* is a compact, JSON-stable summary of one run: makespan,
per-category and per-lane time, the causal critical path, and a
structural index of the trace (how many spans of each
``category|label|lane`` shape were recorded).  Reports from two runs --
two commits, two configs, two platforms -- are compared with
:func:`diff_reports`, which answers both *how much* (timing deltas) and
*what changed* (span shapes added/removed/recounted, critical-path
composition shifts).

Because everything in a report is a pure function of the deterministic
trace, a same-seed run diffed against itself is exactly zero -- the
property ``repro diff`` and the CI golden gate rely on:
``benchmarks/gate.py`` re-runs pinned scenarios and fails when a run
report's digest drifts from ``benchmarks/results/golden.json`` or its
makespan grows beyond tolerance.
"""

from __future__ import annotations

import json
import typing as _t

from repro.errors import ReportError
from repro.obs.causal import SpanGraph, critical_path_report
from repro.obs.metrics import interval_length as _interval_length
from repro.obs.metrics import merge_intervals as _merge_intervals
from repro.schema import is_number, read_json
from repro.sim.trace import Trace

__all__ = ["run_report", "report_from_trace", "write_report", "load_report",
           "diff_reports", "render_diff", "canonical_json"]

REPORT_SCHEMA = "repro.report/v1"
DIFF_SCHEMA = "repro.diff/v1"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _span_index(trace: Trace) -> dict[str, int]:
    """Structural index: span count per ``category|label|lane`` shape.

    Counts (not ids or timestamps) make the index comparable across runs
    whose timings differ but whose structure should not.
    """
    out: dict[str, int] = {}
    for s in trace.spans:
        key = f"{s.category}|{s.label}|{s.lane}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def report_from_trace(trace: Trace, elapsed: float | None = None,
                      label: str = "", context: dict | None = None) -> dict:
    """Build a run report from a bare trace (no sorter involved)."""
    graph = SpanGraph.from_trace(trace)
    cp = critical_path_report(graph)
    makespan = trace.makespan()
    # Group lane intervals in one pass; merging each group reproduces
    # Trace.busy_time's floats exactly (same sort, same sweep) without
    # re-scanning the whole span list once per lane.
    lane_ivs: dict[str, list[tuple[float, float]]] = {}
    for s in trace.spans:
        lane_ivs.setdefault(s.lane, []).append((s.start, s.end))
    return {
        "schema": REPORT_SCHEMA,
        "label": label,
        "context": dict(context or {}),
        "makespan_s": makespan,
        "elapsed_s": makespan if elapsed is None else float(elapsed),
        "n_spans": len(trace.spans),
        "n_edges": graph.edge_count(),
        "categories": {k: v for k, v in sorted(trace.breakdown().items())},
        "lanes": {ln: _interval_length(_merge_intervals(lane_ivs[ln]))
                  for ln in sorted(lane_ivs)},
        "span_index": _span_index(trace),
        "critical_path": {
            "duration": cp["duration"],
            "wait": cp["wait"],
            "n_spans": cp["n_spans"],
            "by_category": cp["by_category"],
            "by_lane": cp["by_lane"],
        },
    }


def run_report(result, label: str = "") -> dict:
    """Run report for a :class:`~repro.hetsort.result.SortResult`."""
    context = {
        "platform": result.platform_name,
        "approach": result.approach,
    }
    if result.plan is not None:
        context.update(n=result.plan.n, n_batches=result.plan.n_batches,
                       batch_size=result.plan.batch_size,
                       n_gpus=result.plan.n_gpus)
    return report_from_trace(result.trace, elapsed=result.elapsed,
                             label=label or result.approach,
                             context=context)


def canonical_json(doc, indent: int | None = 2) -> str:
    """The one serializer every machine-readable artifact shares.

    ``sort_keys`` plus a fixed separator style makes the bytes a pure
    function of the content -- two identical runs produce identical
    output.  ``indent=None`` emits the compact single-line form used for
    sweep-ledger JSONL lines; the default pretty form is what ``--json``
    flags and ``--report`` files print."""
    if indent is None:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return json.dumps(doc, indent=indent, sort_keys=True)


def write_report(report: dict, path) -> None:
    """Write a report (or any diff/gate document) as canonical JSON
    (see :func:`canonical_json`)."""
    with open(path, "w") as fh:
        fh.write(canonical_json(report))
        fh.write("\n")


def load_report(path) -> dict:
    """Read a run report written by :func:`write_report`; a file that
    cannot be read, or is not a ``repro.report/v1`` report
    :func:`diff_reports` can compare, raises
    :class:`~repro.errors.ReportError`."""
    doc = read_json(path, ReportError, "report", REPORT_SCHEMA)
    for key in ("makespan_s", "elapsed_s"):
        if not is_number(doc.get(key)):
            raise ReportError(f"{path}: {key!r} must be a number")
    cp = doc.get("critical_path", {})
    sections = {key: doc.get(key, {})
                for key in ("span_index", "categories", "lanes")}
    sections["critical_path.by_category"] = (
        cp.get("by_category", {}) if isinstance(cp, dict) else cp)
    for key, section in sections.items():
        if not (isinstance(section, dict)
                and all(map(is_number, section.values()))):
            raise ReportError(f"{path}: {key!r} must be an object of "
                              "numbers")
    return doc


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

def _num_delta(a: float, b: float) -> dict:
    return {"a": a, "b": b, "delta": b - a,
            "rel": ((b - a) / a) if a else (0.0 if b == a else float("inf"))}


def _map_delta(a: _t.Mapping[str, float], b: _t.Mapping[str, float]) -> dict:
    out = {}
    for k in sorted(set(a) | set(b)):
        out[k] = _num_delta(a.get(k, 0.0), b.get(k, 0.0))
    return out


def diff_reports(a: dict, b: dict, tolerance: float = 0.0) -> dict:
    """Structural + timing comparison of two run reports.

    ``tolerance`` is the relative makespan change below which the diff
    counts as clean (``regression`` stays False).  ``zero`` is True only
    for a *bit-identical* comparison: no timing delta anywhere and no
    structural change -- the self-diff invariant.
    """
    idx_a, idx_b = a.get("span_index", {}), b.get("span_index", {})
    added = sorted(k for k in idx_b if k not in idx_a)
    removed = sorted(k for k in idx_a if k not in idx_b)
    recounted = {k: {"a": idx_a[k], "b": idx_b[k]}
                 for k in sorted(set(idx_a) & set(idx_b))
                 if idx_a[k] != idx_b[k]}

    makespan = _num_delta(a["makespan_s"], b["makespan_s"])
    elapsed = _num_delta(a["elapsed_s"], b["elapsed_s"])
    categories = _map_delta(a.get("categories", {}), b.get("categories", {}))
    lanes = _map_delta(a.get("lanes", {}), b.get("lanes", {}))
    cp = _map_delta(a.get("critical_path", {}).get("by_category", {}),
                    b.get("critical_path", {}).get("by_category", {}))

    structural = bool(added or removed or recounted)
    zero = (not structural
            and makespan["delta"] == 0.0 and elapsed["delta"] == 0.0
            and all(d["delta"] == 0.0 for d in categories.values())
            and all(d["delta"] == 0.0 for d in lanes.values())
            and all(d["delta"] == 0.0 for d in cp.values()))
    return {
        "schema": DIFF_SCHEMA,
        "a": a.get("label", "a"),
        "b": b.get("label", "b"),
        "tolerance": tolerance,
        "makespan": makespan,
        "elapsed": elapsed,
        "categories": categories,
        "lanes": lanes,
        "critical_path": cp,
        "spans": {"added": added, "removed": removed,
                  "recounted": recounted},
        "structural_change": structural,
        "zero": zero,
        "regression": makespan["rel"] > tolerance,
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v * 1e3:10.4f} ms"


def render_diff(diff: dict, min_rel: float = 0.0) -> str:
    """Human-readable multi-line rendering of a :func:`diff_reports`
    result.  Rows whose relative change is below ``min_rel`` are
    suppressed (structural changes always shown)."""
    lines = [f"diff: {diff['a']} -> {diff['b']}"]
    if diff["zero"]:
        lines.append("  identical (zero deltas, no structural change)")
        return "\n".join(lines)

    def row(name, d):
        mark = " *" if abs(d["rel"]) > max(min_rel, diff["tolerance"]) \
            else ""
        return (f"  {name:<28s} {_fmt(d['a'])} -> {_fmt(d['b'])}  "
                f"({d['rel'] * 100:+7.2f}%){mark}")

    lines.append(row("makespan", diff["makespan"]))
    lines.append(row("elapsed", diff["elapsed"]))
    for section in ("categories", "lanes", "critical_path"):
        shown = [(k, d) for k, d in diff[section].items()
                 if d["delta"] != 0.0 and abs(d["rel"]) >= min_rel]
        if shown:
            lines.append(f"  {section}:")
            for k, d in shown:
                lines.append("  " + row(k, d))
    sp = diff["spans"]
    for label, keys in (("added", sp["added"]), ("removed", sp["removed"])):
        for k in keys:
            lines.append(f"  span shape {label}: {k}")
    for k, c in sp["recounted"].items():
        lines.append(f"  span count changed: {k} ({c['a']} -> {c['b']})")
    if diff["regression"]:
        lines.append(f"  REGRESSION: makespan "
                     f"{diff['makespan']['rel'] * 100:+.2f}% exceeds "
                     f"tolerance {diff['tolerance'] * 100:.1f}%")
    return "\n".join(lines)
