"""Cross-run performance archive: a content-addressed, append-only
record of every measured run.

One run in exquisite detail is what the rest of :mod:`repro.obs`
provides; the archive is the repo's *memory across runs*.  Every entry
point -- ``repro run/sweep/chaos`` and the golden gate
``benchmarks/gate.py`` -- can append a compact ``repro.archive/v1``
record per run: workload/config fingerprint, headline measurements
(makespan, events/sec, throughput), per-lane utilization, the canonical
run report (critical-path composition included), conformance
residuals and gate verdicts.  The trend observatory
(:mod:`repro.obs.trends`) reads the archive back as per-metric time
series keyed by fingerprint.

Three properties make the archive trustworthy:

* **content-addressed** -- each entry carries ``entry``, the SHA-256 (16
  hex chars) of its own canonical-JSON body, and ``fingerprint``, the
  SHA-256 of the workload/config point.  A corrupted or hand-edited line
  no longer matches its hash and :func:`validate_archive` rejects it;
* **append-only and idempotent** -- :func:`append_entries` never
  rewrites existing lines and skips entries whose id is already present,
  so re-archiving the same deterministic run is a byte-level no-op;
* **byte-stable** -- entries are serialized with
  :func:`repro.obs.diff.canonical_json` in compact form, so the same run
  always produces the identical line.

Alongside ``<name>.jsonl`` lives ``<name>.manifest.json``
(``repro.archive_manifest/v1``): the entry-id order, per-fingerprint and
per-source counts.  :func:`validate_archive` cross-checks both files,
analogous to :func:`repro.obs.sinks.validate_event_log`.
"""

from __future__ import annotations

import hashlib
import math
import os
import typing as _t

from repro.errors import ArchiveError
from repro.obs.diff import canonical_json, run_report
from repro.schema import field_error, is_number, read_json, read_jsonl

__all__ = [
    "ARCHIVE_SCHEMA", "MANIFEST_SCHEMA", "fingerprint", "entry_id",
    "make_entry", "entry_from_result", "entry_from_ledger",
    "load_archive", "append_entries", "manifest_path", "build_manifest",
    "validate_archive", "archive_summary",
]

ARCHIVE_SCHEMA = "repro.archive/v1"
MANIFEST_SCHEMA = "repro.archive_manifest/v1"

#: Hex digits kept from the SHA-256 of a fingerprint / entry id.  64
#: bits of content address: ample for archives of thousands of entries,
#: short enough to read in a table.
_HASH_CHARS = 16

#: Entry keys every record must carry, with the types its readers use
#: (``report``/``residuals`` may be None, ``verdicts`` may be empty).
#: ``profile`` is always written as None; older archives may hold a
#: kernel-profile object there, which readers accept unchanged.
_ENTRY_FIELDS = {"schema": str, "entry": str, "fingerprint": str,
                 "source": str, "label": str, "point": dict,
                 "metrics": dict, "lanes": object, "report": object,
                 "residuals": object, "verdicts": object, "profile": object}


def _sha(doc) -> str:
    payload = canonical_json(doc, indent=None).encode()
    return hashlib.sha256(payload).hexdigest()[:_HASH_CHARS]


def fingerprint(point: _t.Mapping) -> str:
    """Content address of one workload/config point.

    The fingerprint is what keys a time series in the trend observatory:
    two runs with the identical point dict (platform, approach, n,
    streams, ...) are measurements *of the same thing* and land on the
    same series, whatever their label or source.
    """
    return _sha(dict(point))


def entry_id(entry: _t.Mapping) -> str:
    """Content address of one archive entry (its body sans ``entry``)."""
    body = {k: v for k, v in entry.items() if k != "entry"}
    return _sha(body)


def _check_metrics(metrics: _t.Mapping) -> dict:
    out = {}
    for k, v in metrics.items():
        if not is_number(v):
            raise ArchiveError(
                f"metric {k!r} must be a number, got {type(v).__name__}")
        if isinstance(v, float) and not math.isfinite(v):
            raise ArchiveError(f"metric {k!r} is not finite ({v!r})")
        out[str(k)] = v
    return out


def make_entry(*, source: str, label: str, point: _t.Mapping,
               metrics: _t.Mapping, lanes: _t.Mapping | None = None,
               report: dict | None = None,
               residuals: _t.Mapping | None = None,
               verdicts: _t.Sequence[dict] = ()) -> dict:
    """Assemble one ``repro.archive/v1`` entry.

    ``point`` is the workload/config dict the fingerprint hashes;
    ``metrics`` a flat name -> finite number mapping; ``lanes`` the
    per-lane utilization fractions; ``report`` the canonical
    :func:`~repro.obs.diff.run_report` (kept whole so any two entries
    can be diffed with the critical-path composition intact);
    ``residuals`` the conformance gap attribution; ``verdicts`` a list
    of gate verdict dicts (``{"gate", "ok", "failures"}``).
    """
    entry = {
        "schema": ARCHIVE_SCHEMA,
        "fingerprint": fingerprint(point),
        "source": str(source),
        "label": str(label),
        "point": dict(point),
        "metrics": _check_metrics(metrics),
        "lanes": dict(lanes or {}),
        "report": report,
        "residuals": dict(residuals) if residuals is not None else None,
        "verdicts": [dict(v) for v in verdicts],
        "profile": None,
    }
    entry["entry"] = entry_id(entry)
    return entry


def _lane_utilization(report: dict) -> dict[str, float]:
    makespan = report.get("makespan_s", 0.0)
    if makespan <= 0:
        return {ln: 0.0 for ln in report.get("lanes", {})}
    return {ln: busy / makespan
            for ln, busy in report.get("lanes", {}).items()}


def entry_from_result(result, *, source: str = "run", label: str = "",
                      point: _t.Mapping | None = None,
                      report: dict | None = None,
                      verdicts: _t.Sequence[dict] = ()) -> dict:
    """Archive entry for a finished
    :class:`~repro.hetsort.result.SortResult`.

    ``point`` defaults to the run's own configuration (platform,
    approach, plan geometry) so same-config runs share a fingerprint.
    """
    if report is None:
        report = run_report(result, label=label or result.approach)
    if point is None:
        point = {
            "platform": result.platform_name,
            "approach": result.approach,
            "n_streams": result.config.n_streams,
            "pinned_elements": result.config.pinned_elements,
            "memcpy_threads": result.config.memcpy_threads,
        }
        if result.plan is not None:
            point.update(n=result.plan.n, n_gpus=result.plan.n_gpus,
                         batch_size=result.plan.batch_size)
    metrics = {
        "makespan_s": report["makespan_s"],
        "elapsed_s": result.elapsed,
        "throughput_el_per_s": result.throughput,
        "related_work_s": result.related_work_end_to_end,
        "missing_overhead_s": result.missing_overhead,
    }
    if "overlap_efficiency" in result.metrics:
        metrics["overlap_efficiency"] = \
            result.metrics["overlap_efficiency"]
    memory = result.metrics.get("memory")
    if memory is not None:
        metrics["peak_pinned_bytes"] = memory.get("peak_pinned_bytes", 0)
        for pool, peak in sorted(
                memory.get("peak_device_bytes", {}).items()):
            metrics[f"peak_device_bytes.{pool}"] = peak
    flows = result.metrics.get("flows")
    if flows is not None:
        metrics["link_peak_utilization"] = \
            flows.get("link_peak_utilization", 0.0)
        metrics["transfer_contention_s"] = \
            flows.get("transfer_contention_s", 0.0)
    conf = result.metrics.get("conformance")
    residuals = None
    if conf is not None:
        metrics["model_gap_s"] = conf["gap_s"]
        residuals = conf["residuals"]
    return make_entry(source=source, label=label or result.approach,
                      point=point, metrics=metrics,
                      lanes=_lane_utilization(report), report=report,
                      residuals=residuals, verdicts=verdicts)


def entry_from_ledger(record: dict, *, source: str = "sweep",
                      verdicts: _t.Sequence[dict] = ()) -> dict:
    """Archive entry for one ``repro.sweep/v1`` ledger record."""
    measured = record["measured"]
    conf = record.get("conformance") or {}
    metrics = {
        "makespan_s": measured["makespan_s"],
        "elapsed_s": measured["elapsed_s"],
        "throughput_el_per_s": measured["throughput_el_per_s"],
        "related_work_s": measured["related_work_s"],
        "missing_overhead_s": measured["missing_overhead_s"],
    }
    if conf:
        metrics["model_gap_s"] = conf["gap_s"]
    report = record.get("report")
    return make_entry(source=source, label=record["run_id"],
                      point=record["point"], metrics=metrics,
                      lanes=_lane_utilization(report or {}),
                      report=report,
                      residuals=conf.get("residuals"),
                      verdicts=verdicts)


# ---------------------------------------------------------------------------
# Archive IO
# ---------------------------------------------------------------------------

def manifest_path(path) -> str:
    """``foo.jsonl`` -> ``foo.manifest.json`` (sibling sidecar)."""
    path = os.fspath(path)
    root = path[:-len(".jsonl")] if path.endswith(".jsonl") else path
    return root + ".manifest.json"


def load_archive(path) -> list[dict]:
    """Read archive entries back; raises :class:`ArchiveError` on an
    unreadable file, malformed lines, unknown schemas or an entry
    without the full key set or with a wrong-typed key (integrity
    hashes are checked by :func:`validate_archive`, not here)."""
    entries = list(read_jsonl(path, ArchiveError, "archive",
                              ARCHIVE_SCHEMA).values())
    for i, entry in enumerate(entries):
        problem = field_error(entry, _ENTRY_FIELDS)
        if problem:
            raise ArchiveError(f"entry {i}: {problem}")
    return entries


def build_manifest(entries: _t.Sequence[dict]) -> dict:
    """The manifest document for an entry sequence (in file order)."""
    fps: dict[str, int] = {}
    sources: dict[str, int] = {}
    labels: dict[str, str] = {}
    for e in entries:
        fps[e["fingerprint"]] = fps.get(e["fingerprint"], 0) + 1
        sources[e["source"]] = sources.get(e["source"], 0) + 1
        labels[e["fingerprint"]] = e["label"]
    return {
        "schema": MANIFEST_SCHEMA,
        "n_entries": len(entries),
        "entries": [e["entry"] for e in entries],
        "fingerprints": dict(sorted(fps.items())),
        "labels": dict(sorted(labels.items())),
        "sources": dict(sorted(sources.items())),
    }


def append_entries(path, entries: _t.Sequence[dict]) -> list[dict]:
    """Append entries not already present; returns those written.

    The JSONL file is only ever opened in append mode -- existing bytes
    are never rewritten -- and the manifest sidecar is regenerated to
    match.  Appending an entry whose content hash is already archived
    is a no-op, so re-archiving the same deterministic run leaves both
    files bit-identical (the idempotency the acceptance tests pin).
    """
    existing = load_archive(path) if os.path.exists(path) else []
    seen = {e["entry"] for e in existing}
    fresh: list[dict] = []
    for entry in entries:
        eid = entry_id(entry)
        if entry.get("entry") != eid:
            raise ArchiveError(
                f"entry {entry.get('entry')!r} does not match its "
                f"content hash {eid} (was the record edited?)")
        if eid in seen:
            continue
        seen.add(eid)
        fresh.append(entry)
    parent = os.path.dirname(os.path.abspath(os.fspath(path)))
    os.makedirs(parent, exist_ok=True)
    if fresh:
        with open(path, "a") as fh:
            for entry in fresh:
                fh.write(canonical_json(entry, indent=None))
                fh.write("\n")
    manifest = build_manifest(existing + fresh)
    mpath = manifest_path(path)
    if fresh or not os.path.exists(mpath):
        with open(mpath, "w") as fh:
            fh.write(canonical_json(manifest))
            fh.write("\n")
    return fresh


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def archive_summary(entries: _t.Sequence[dict]) -> dict:
    """Counts + metric coverage for an entry list (pure function)."""
    manifest = build_manifest(entries)
    metrics = sorted({m for e in entries for m in e["metrics"]})
    return {
        "schema": MANIFEST_SCHEMA,
        "n_entries": manifest["n_entries"],
        "n_fingerprints": len(manifest["fingerprints"]),
        "fingerprints": manifest["fingerprints"],
        "labels": manifest["labels"],
        "sources": manifest["sources"],
        "metrics": metrics,
    }


def validate_archive(path) -> dict:
    """Read and validate an archive (and its manifest); returns the
    :func:`archive_summary`.

    Checks, in order: every line parses with the ``repro.archive/v1``
    schema and every entry carries the full key set
    (:func:`load_archive`); every ``entry`` id matches the recomputed
    content hash of its body and every ``fingerprint`` the recomputed
    hash of its point; ids are unique;
    metrics are finite numbers; the manifest sidecar exists and agrees
    (schema, count, id order, fingerprint/source counts).  Violations
    raise :class:`~repro.errors.ArchiveError`.
    """
    entries = load_archive(path)
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        if not (isinstance(entry["point"], dict)
                and isinstance(entry["metrics"], dict)):
            raise ArchiveError(f"entry {i}: point and metrics must be objects")
        if entry["entry"] != entry_id(entry):
            raise ArchiveError(
                f"entry {i} ({entry['entry']}): content hash mismatch "
                f"(body hashes to {entry_id(entry)})")
        if entry["fingerprint"] != fingerprint(entry["point"]):
            raise ArchiveError(
                f"entry {i} ({entry['entry']}): fingerprint "
                f"{entry['fingerprint']} does not match its point "
                f"(expected {fingerprint(entry['point'])})")
        if entry["entry"] in seen:
            raise ArchiveError(
                f"entry {i}: duplicate entry id {entry['entry']} "
                "(append-only archives never repeat a record)")
        seen.add(entry["entry"])
        _check_metrics(entry["metrics"])
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        raise ArchiveError(f"manifest missing: {mpath}")
    manifest = read_json(mpath, ArchiveError, "manifest", MANIFEST_SCHEMA)
    expected = build_manifest(entries)
    for key in ("n_entries", "entries", "fingerprints", "sources"):
        if manifest.get(key) != expected[key]:
            raise ArchiveError(
                f"{mpath}: manifest {key} disagrees with the archive "
                "(regenerate by appending)")
    return archive_summary(entries)
