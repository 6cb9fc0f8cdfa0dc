"""Model-conformance records: confront analytical predictions with traces.

The paper's lower-bound model (Sec. IV-G, Fig. 11) predicts a makespan
``T(n) = slope * n`` per (platform, GPU count).  This module closes the
loop between that prediction and the measured, causally-traced runs a
sweep produces:

* :func:`conformance_record` -- one run's predicted vs. measured
  makespan, with the model-vs-measured gap attributed to span categories
  (HtoD/DtoH/MCpy/GPUSort/Sync/PinnedAlloc/wait) along the causal
  critical path.  The attribution is *exact by construction*: the
  per-category residuals sum (in the record's own key order) to the gap,
  bit for bit, so nothing is lost or invented.
* :func:`fit_slope` / :func:`group_conformance` -- a least-squares line
  through the origin per (platform, n_gpus, approach) group with its R²,
  compared against :func:`repro.model.paper_slopes` where the paper
  reports one, plus **anomaly flags** for runs that deviate from the
  fitted line beyond a z-score or relative tolerance.
* :func:`conformance_summary` -- the whole-ledger document the
  ``repro conformance`` subcommand prints, the CI gate checks, and the
  HTML dashboard renders.

Everything is a pure function of deterministic inputs; serialized with
:func:`repro.obs.diff.canonical_json` the records are byte-stable across
same-seed runs.
"""

from __future__ import annotations

import math
import typing as _t

from repro.obs.causal import WAIT

if _t.TYPE_CHECKING:  # repro.model imports the sorter; keep obs import-light
    from repro.model.lowerbound import LowerBoundModel

__all__ = [
    "PAPER_BANDS", "residual_attribution", "conformance_record",
    "attach_conformance", "fit_line", "group_key", "group_conformance",
    "conformance_summary",
]

CONFORMANCE_SCHEMA = "repro.conformance/v1"
SUMMARY_SCHEMA = "repro.conformance_summary/v1"

#: Documented tolerance bands around the paper's reported numbers.  The
#: differential tests (``tests/model/test_paper_band.py``) assert the
#: simulation stays inside them, and the dashboard prints them so a
#: reader can see how much slack the reproduction claims.
PAPER_BANDS = {
    # Fig. 7 pinned-transfer seconds (PAPER_FIG7_SECONDS), relative.
    "fig7_transfer_rel": {"HtoD_ours": 0.10, "DtoH_ours": 0.12},
    # Fig. 11 lower-bound slopes (paper_slopes()), relative, by n_gpus.
    "fig11_slope_rel": {1: 0.08, 2: 0.15},
}

#: Default anomaly thresholds (see :func:`group_conformance`).
Z_THRESHOLD = 3.0
REL_TOLERANCE = 0.5


# ---------------------------------------------------------------------------
# Per-run records
# ---------------------------------------------------------------------------

def residual_attribution(report: dict, predicted_s: float
                         ) -> dict[str, float]:
    """Split ``measured - predicted`` over span categories, exactly.

    The causal critical path tiles the makespan: every second is either
    a path span's duration (by category) or a wait gap (:data:`WAIT`),
    plus the lead-in before the chain's first span (also attributed to
    :data:`WAIT`).  Each category receives the share of the gap
    proportional to its share of the critical path, and the last-summed
    category absorbs the floating-point remainder so that summing the
    returned values in sorted key order reproduces the gap *bit for
    bit* -- the invariant the dashboard's stacked residual bars and the
    acceptance tests rely on.
    """
    measured = report["makespan_s"]
    gap = measured - predicted_s
    cp = report.get("critical_path", {})
    shares = dict(cp.get("by_category", {}))
    lead_in = measured - cp.get("duration", measured)
    if lead_in > 0:
        shares[WAIT] = shares.get(WAIT, 0.0) + lead_in
    total = sum(shares.values())
    if total <= 0 or not shares:
        return {WAIT: gap}
    return _exact_split(gap, shares, total)


def _exact_split(total: float, weights: _t.Mapping[str, float],
                 wsum: float) -> dict[str, float]:
    """Split ``total`` over ``weights`` (whose sum, in the caller's own
    order, is ``wsum > 0``) in proportion, so that summing the returned
    parts left to right in sorted key order reproduces ``total`` *bit
    for bit*; the parts come back in that order.
    """
    cats = sorted(weights)
    out = {c: total * (weights[c] / wsum) for c in cats}
    if len(cats) == 1:
        out[cats[0]] = total
        return out
    # Force the exact-sum invariant against plain left-to-right addition
    # in key order (what sum(record.values()) does after a JSON round
    # trip, since canonical JSON preserves the sorted key order).  The
    # last-summed category absorbs: with ``prefix`` the rounded sum of
    # everything before it, ``total - prefix`` leaves one rounding,
    # which a short directional walk of the absorber fixes -- except on
    # a round-to-even tie.  When the exact sum sits half an ulp from a
    # total with an odd mantissa, *every* absorber candidate rounds to
    # one of the even neighbours and the total is unreachable; the
    # prefix's sub-ulp residue must change instead.  Whole-ulp steps of
    # a prefix element can hop tie to tie forever (the rounded prefix
    # then only ever moves in even ulp counts), so the elements are
    # stepped by *half* a prefix ulp: a half step turns an exact tie
    # into an exactly representable value, forcing an odd move that
    # flips the residue and opens the total's rounding basin.
    last = cats[-1]

    def _accumulate() -> float:
        p = 0.0
        for c in cats[:-1]:
            p += out[c]
        return p

    def _settle(p: float) -> bool:
        out[last] = total - p
        s = p + out[last]
        for _ in range(4):
            if s == total:
                return True
            out[last] = math.nextafter(out[last],
                                       math.inf if total > s else -math.inf)
            s = p + out[last]
        return s == total

    prefix = _accumulate()
    if not _settle(prefix):
        half = math.ulp(prefix) / 2.0
        for j in range(len(cats) - 2, -1, -1):
            step = max(half, math.ulp(out[cats[j]]))
            landed = False
            for _ in range(8):
                out[cats[j]] += step
                if _settle(_accumulate()):
                    landed = True
                    break
            if landed:
                break
    return out


def conformance_record(report: dict, model: "LowerBoundModel") -> dict:
    """Predicted vs. measured for one run report (see module docstring).

    ``slowdown`` is the paper's Fig. 11 metric ``model / measured``
    (< 1 means the run is slower than the analytical limit; PIPEDATA
    reaches 0.88--0.93x at n = 4.9e9 in the paper)."""
    ctx = report.get("context", {})
    n = int(ctx["n"])
    measured = report["makespan_s"]
    predicted = model.seconds(n)
    residuals = residual_attribution(report, predicted)
    return {
        "schema": CONFORMANCE_SCHEMA,
        "n": n,
        "measured_s": measured,
        "predicted_s": predicted,
        "gap_s": measured - predicted,
        "slowdown": (predicted / measured) if measured > 0 else math.inf,
        "residuals": residuals,
        "model": {
            "platform": model.platform_name,
            "n_gpus": model.n_gpus,
            "slope": model.slope,
            "calibration_n": model.calibration_n,
        },
    }


def attach_conformance(result, model: "LowerBoundModel",
                       report: dict | None = None) -> dict:
    """Compute a conformance record for a finished
    :class:`~repro.hetsort.result.SortResult` and export it onto
    ``result.metrics["conformance"]`` (also returned).

    ``report`` optionally supplies the run report when the caller has
    already built one (building it walks the whole span DAG, so sharing
    matters on large traces); only its measured/critical-path fields are
    read, never the label.
    """
    if report is None:
        from repro.obs.diff import run_report
        report = run_report(result)
    record = conformance_record(report, model)
    result.metrics["conformance"] = record
    return record


# ---------------------------------------------------------------------------
# Group fits and anomaly flags
# ---------------------------------------------------------------------------

def fit_line(points: _t.Sequence[tuple[float, float]]
             ) -> tuple[float, float, float]:
    """Least-squares affine fit ``t = intercept + slope * n`` with R².

    ``points`` are ``(n, seconds)`` pairs.  The *slope* is the quantity
    comparable to the paper's Fig. 11 models (``T = slope * n``): the
    intercept soaks up the size-independent overheads (pinned
    allocation, per-batch fixed costs) that dominate small-n sweeps and
    would otherwise wreck a through-origin fit.  R² is 1.0 for a perfect
    line and, by convention, for degenerate (< 3 point or zero-spread)
    groups."""
    pts = [(float(n), float(t)) for n, t in points]
    if not pts:
        return 0.0, 0.0, 1.0
    if len(pts) == 1:
        n, t = pts[0]
        return 0.0, (t / n) if n > 0 else 0.0, 1.0
    k = len(pts)
    mean_n = sum(n for n, _ in pts) / k
    mean_t = sum(t for _, t in pts) / k
    sxx = sum((n - mean_n) ** 2 for n, _ in pts)
    if sxx <= 0:
        return mean_t, 0.0, 1.0
    slope = sum((n - mean_n) * (t - mean_t) for n, t in pts) / sxx
    intercept = mean_t - slope * mean_n
    ss_tot = sum((t - mean_t) ** 2 for _, t in pts)
    ss_res = sum((t - intercept - slope * n) ** 2 for n, t in pts)
    if ss_tot <= 0:
        return intercept, slope, 1.0
    return intercept, slope, 1.0 - ss_res / ss_tot


def group_key(record: dict) -> str:
    """The fit group of one ledger record: platform, GPUs, approach."""
    pt = record["point"]
    return f"{pt['platform']}|g{pt['n_gpus']}|{pt['approach']}"


def group_conformance(records: _t.Sequence[dict],
                      z_threshold: float = Z_THRESHOLD,
                      rel_tolerance: float = REL_TOLERANCE) -> dict:
    """Fit one line per (platform, n_gpus, approach) group and flag
    anomalous runs.

    A run is anomalous when its deviation from the group's fitted line
    exceeds ``rel_tolerance`` relative to the fitted prediction
    (``"relative"`` flag), or -- for groups of at least three runs with
    non-degenerate spread -- when its z-score among the group's
    residuals exceeds ``z_threshold`` (``"zscore"`` flag)."""
    from repro.model.lowerbound import paper_slopes
    groups: dict[str, list[dict]] = {}
    for rec in records:
        groups.setdefault(group_key(rec), []).append(rec)
    paper = paper_slopes()
    out: dict[str, dict] = {}
    for key in sorted(groups):
        recs = sorted(groups[key], key=lambda r: r["conformance"]["n"])
        pts = [(r["conformance"]["n"], r["conformance"]["measured_s"])
               for r in recs]
        intercept, slope, r2 = fit_line(pts)
        platform = recs[0]["point"]["platform"]
        n_gpus = recs[0]["point"]["n_gpus"]
        paper_slope = paper.get(n_gpus) if platform == "PLATFORM2" else None
        errors = [t - (intercept + slope * n) for n, t in pts]
        mean_e = sum(errors) / len(errors)
        var = sum((e - mean_e) ** 2 for e in errors) / len(errors)
        std = math.sqrt(var)
        anomalies = []
        for rec, (n, t), e in zip(recs, pts, errors):
            expected = intercept + slope * n
            flags = []
            rel = abs(e) / expected if expected > 0 else math.inf
            if rel > rel_tolerance:
                flags.append("relative")
            z = (e - mean_e) / std if std > 0 else 0.0
            if len(recs) >= 3 and std > 0 and abs(z) > z_threshold:
                flags.append("zscore")
            if flags:
                anomalies.append({
                    "run_id": rec["run_id"],
                    "n": n,
                    "measured_s": t,
                    "expected_s": expected,
                    "deviation_s": e,
                    "rel": rel,
                    "z": z,
                    "flags": flags,
                })
        model_slope = recs[0]["conformance"]["model"]["slope"]
        out[key] = {
            "platform": platform,
            "n_gpus": n_gpus,
            "approach": recs[0]["point"]["approach"],
            "n_runs": len(recs),
            "fitted_intercept": intercept,
            "fitted_slope": slope,
            "r2": r2,
            "model_slope": model_slope,
            "paper_slope": paper_slope,
            "fitted_vs_paper": (slope / paper_slope) if paper_slope
            else None,
            "model_vs_paper": (model_slope / paper_slope) if paper_slope
            else None,
            "anomalies": anomalies,
        }
    return out


def conformance_summary(records: _t.Sequence[dict],
                        z_threshold: float = Z_THRESHOLD,
                        rel_tolerance: float = REL_TOLERANCE) -> dict:
    """The whole-ledger conformance document (groups + flat anomaly
    list + the documented paper bands)."""
    groups = group_conformance(records, z_threshold=z_threshold,
                               rel_tolerance=rel_tolerance)
    anomalies = [dict(a, group=key)
                 for key, g in groups.items() for a in g["anomalies"]]
    slowdowns = [r["conformance"]["slowdown"] for r in records
                 if r["conformance"]["measured_s"] > 0]
    return {
        "schema": SUMMARY_SCHEMA,
        "n_runs": len(records),
        "n_groups": len(groups),
        "n_anomalies": len(anomalies),
        "mean_slowdown": (sum(slowdowns) / len(slowdowns))
        if slowdowns else 0.0,
        "z_threshold": z_threshold,
        "rel_tolerance": rel_tolerance,
        "groups": groups,
        "anomalies": anomalies,
        "paper_bands": PAPER_BANDS,
    }
