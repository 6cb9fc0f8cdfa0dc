"""The ``repro.service/v1`` verdict: per-tenant QoS outcome of one run.

A verdict is a plain JSON-able dict -- per-tenant latency percentiles
(nearest-rank, so no interpolation-dependent floats), the Jain fairness
index over per-tenant mean *normalized* latency (latency per element, so
tenants with different job sizes are comparable), the SLO hit rate, the
per-job rows and the controller's epoch stats.  Canonical-JSON of a
verdict is byte-stable across identical runs (pinned by the golden
battery).
"""

from __future__ import annotations

import math
import typing as _t

__all__ = ["SERVICE_SCHEMA", "percentile", "jain_index", "build_verdict",
           "archive_entry"]

SERVICE_SCHEMA = "repro.service/v1"


def percentile(sorted_vals: _t.Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence (0 for an
    empty one)."""
    if not sorted_vals:
        return 0.0
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(sorted_vals))
    return float(sorted_vals[max(0, rank - 1)])


def jain_index(xs: _t.Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (k * sum x^2)``: 1.0 means
    perfectly even, ``1/k`` means one participant takes everything."""
    xs = [float(x) for x in xs]
    if not xs:
        return 1.0
    sq = sum(x * x for x in xs)
    if sq == 0.0:
        return 1.0
    s = sum(xs)
    return (s * s) / (len(xs) * sq)


def archive_entry(verdict: dict, label: str,
                  gate_verdicts: _t.Sequence[dict] = (),
                  source: str = "service") -> dict:
    """One ``repro.archive/v1`` entry for a service verdict.

    The point dict captures the run's identity (platform, allocator,
    seed, tenant geometry) so repeated runs of the same configuration
    land on one trend series regardless of ``source``; the metrics are
    the flat scalars the trend observatory charts (per-tenant p50/p99,
    Jain index, SLO hit rate, elapsed time).
    """
    from repro.obs.archive import make_entry

    point = {
        "kind": "service",
        "platform": verdict["platform"],
        "allocator": verdict["allocator"],
        "seed": verdict["seed"],
        "functional": verdict["functional"],
        "tenants": {
            name: {"priority": t["priority"], "share": t["share"],
                   "n_jobs": t["n_jobs"]}
            for name, t in verdict["tenants"].items()
        },
    }
    metrics: dict[str, float] = {
        "elapsed_s": verdict["elapsed_s"],
        "n_jobs": float(verdict["n_jobs"]),
        "jain_latency_index": verdict["fairness"]["jain_latency_index"],
        "bytes_moved": verdict["flows"]["bytes_moved"],
    }
    if verdict["slo"]["hit_rate"] is not None:
        metrics["slo_hit_rate"] = verdict["slo"]["hit_rate"]
    for name, t in verdict["tenants"].items():
        metrics[f"p50_latency_s.{name}"] = t["p50_latency_s"]
        metrics[f"p99_latency_s.{name}"] = t["p99_latency_s"]
        metrics[f"mean_queued_s.{name}"] = t["mean_queued_s"]
    ctl = verdict.get("controller")
    if ctl is not None:
        metrics["reclaimed_fraction"] = ctl["mean_reclaimed_fraction"]
    return make_entry(source=source, label=label, point=point,
                      metrics=metrics, verdicts=list(gate_verdicts))


def build_verdict(service) -> dict:
    """Assemble the verdict from a finished :class:`SortService` run."""
    rows = service._rows
    cfg = service.config
    ledger = service.machine.net.ledger
    bytes_by_tenant = (ledger.bytes_by_tenant()
                       if ledger is not None else {})

    by_tenant: dict[str, list[dict]] = {t.name: [] for t in service.tenants}
    for r in rows:
        by_tenant[r["tenant"]].append(r)

    tenants: dict[str, dict] = {}
    norm_means: list[float] = []
    for t in service.tenants:
        rs = by_tenant[t.name]
        lats = sorted(r["latency_s"] for r in rs)
        mean = sum(lats) / len(lats) if lats else 0.0
        norm = [r["latency_s"] / r["n"] for r in rs]
        if norm:
            norm_means.append(sum(norm) / len(norm))
        slo_rows = [r for r in rs if r["slo_s"] is not None]
        hits = sum(1 for r in slo_rows if r["slo_ok"])
        tenants[t.name] = {
            "priority": t.priority,
            "share": t.share,
            "n_jobs": len(rs),
            "mean_latency_s": mean,
            "p50_latency_s": percentile(lats, 50.0),
            "p99_latency_s": percentile(lats, 99.0),
            "max_latency_s": float(lats[-1]) if lats else 0.0,
            "mean_queued_s": (sum(r["queued_s"] for r in rs) / len(rs)
                              if rs else 0.0),
            "mean_service_s": (sum(r["service_s"] for r in rs) / len(rs)
                               if rs else 0.0),
            "slo_s": t.slo_s,
            "slo_jobs": len(slo_rows),
            "slo_hits": hits,
            "slo_hit_rate": (hits / len(slo_rows) if slo_rows else None),
            "bytes_moved": bytes_by_tenant.get(t.name, 0.0),
        }

    slo_rows = [r for r in rows if r["slo_s"] is not None]
    slo_hits = sum(1 for r in slo_rows if r["slo_ok"])
    controller = service.controller
    return {
        "schema": SERVICE_SCHEMA,
        "platform": service.platform.name,
        "allocator": cfg.allocator,
        "seed": cfg.seed,
        "functional": cfg.functional,
        "n_tenants": len(service.tenants),
        "n_jobs": len(rows),
        "elapsed_s": max((r["end_s"] for r in rows), default=0.0),
        "tenants": tenants,
        "jobs": rows,
        "fairness": {"jain_latency_index": jain_index(norm_means)},
        "slo": {
            "jobs_with_slo": len(slo_rows),
            "hits": slo_hits,
            "hit_rate": (slo_hits / len(slo_rows) if slo_rows else None),
        },
        "controller": (controller.summary() if controller is not None
                       else None),
        "flows": {
            "n_flows": ledger.n_flows if ledger is not None else 0,
            "bytes_moved": (ledger.bytes_moved
                            if ledger is not None else 0.0),
            "tenant_bytes": dict(sorted(bytes_by_tenant.items())),
        },
    }
