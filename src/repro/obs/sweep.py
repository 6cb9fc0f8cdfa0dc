"""Sweep harness: run an (approach x n x streams x platform) grid and
persist every run as one canonical JSONL line -- the **sweep ledger**.

A ledger line is a pure function of the deterministic simulation: the
run's grid point, its headline measurements, its canonical
:func:`repro.obs.diff.run_report` (critical path included), and its
:func:`repro.obs.conformance.conformance_record` against the Sec. IV-G
lower-bound model for that (platform, n_gpus).  Serialized with
:func:`repro.obs.diff.canonical_json` in compact form, a same-seed sweep
writes byte-identical ledgers -- the property the CI conformance gate
and the acceptance tests rely on.

The named grids:

``tiny``
    Two PLATFORM1 runs; exists for fast CLI tests.
``ci``
    The pinned mini-sweep the CI benchmark job replays and the
    conformance gate freezes (BLINE + PIPEDATA on PLATFORM1, three
    sizes each).
``small``
    ``ci`` plus a PLATFORM2 2-GPU PIPEDATA column -- the smallest grid
    that exercises every dashboard panel (multi-platform scatter,
    missing-overhead growth, residual stacks).
``fig8`` / ``fig11``
    Paper-scale grids reproducing Fig. 8's missing-overhead growth and
    Fig. 11's measured-vs-model scatter (minutes, not CI material).
"""

from __future__ import annotations

import typing as _t

from repro.errors import LedgerError
from repro.obs.conformance import attach_conformance
from repro.obs.diff import canonical_json, run_report
from repro.schema import read_jsonl

if _t.TYPE_CHECKING:  # repro.model imports the sorter; keep obs import-light
    from repro.model.lowerbound import LowerBoundModel

__all__ = ["GRIDS", "sweep_points", "run_point", "ledger_record",
           "run_sweep", "write_ledger", "load_ledger"]

LEDGER_SCHEMA = "repro.sweep/v1"

#: Keys a grid point may carry (everything but platform/n/n_gpus is
#: forwarded to :class:`~repro.hetsort.config.SortConfig`).
_CONFIG_KEYS = ("approach", "n_streams", "batch_size", "pinned_elements",
                "memcpy_threads")


def _point(platform: str, approach: str, n: int, *, n_gpus: int = 1,
           n_streams: int = 1, batch_size: int | None = None,
           pinned_elements: int = 50_000,
           memcpy_threads: int = 1) -> dict:
    return {
        "platform": platform, "approach": approach, "n": int(n),
        "n_gpus": n_gpus, "n_streams": n_streams,
        "batch_size": batch_size, "pinned_elements": pinned_elements,
        "memcpy_threads": memcpy_threads,
    }


def _grid_tiny() -> list[dict]:
    return [
        _point("PLATFORM1", "bline", 1_000_000),
        _point("PLATFORM1", "pipedata", 2_000_000, n_streams=2,
               batch_size=500_000),
    ]


def _grid_ci() -> list[dict]:
    pts = [_point("PLATFORM1", "bline", n)
           for n in (1_000_000, 2_000_000, 4_000_000)]
    pts += [_point("PLATFORM1", "pipedata", n, n_streams=2,
                   batch_size=n // 4)
            for n in (1_000_000, 2_000_000, 4_000_000)]
    return pts


def _grid_small() -> list[dict]:
    pts = _grid_ci()
    pts += [_point("PLATFORM2", "pipedata", n, n_gpus=2, n_streams=2,
                   batch_size=n // 4)
            for n in (2_000_000, 4_000_000, 8_000_000)]
    return pts


def _grid_fig8() -> list[dict]:
    return [_point("PLATFORM1", "bline", n, pinned_elements=10 ** 6)
            for n in (200_000_000, 400_000_000, 800_000_000,
                      1_000_000_000)]


def _grid_fig11() -> list[dict]:
    bs = int(3.5e8)
    pts = []
    for g in (1, 2):
        pts += [_point("PLATFORM2", "pipedata", k * bs, n_gpus=g,
                       n_streams=2, batch_size=bs,
                       pinned_elements=10 ** 6)
                for k in (4, 8, 11, 14)]
    return pts


#: name -> (point builder, lower-bound calibration n override).  A
#: ``model_n`` of None derives the model at near-capacity n exactly as
#: the paper does; the small CI-able grids use a modest calibration size
#: so a sweep stays fast.
GRIDS: dict[str, tuple[_t.Callable[[], list[dict]], int | None]] = {
    "tiny": (_grid_tiny, 4_000_000),
    "ci": (_grid_ci, 20_000_000),
    "small": (_grid_small, 20_000_000),
    "fig8": (_grid_fig8, None),
    "fig11": (_grid_fig11, None),
}


def _run_id(pt: dict) -> str:
    return (f"{pt['platform']}-{pt['approach']}-g{pt['n_gpus']}"
            f"-s{pt['n_streams']}-n{pt['n']}")


def sweep_points(grid: str) -> list[dict]:
    """The expanded, deterministic point list of a named grid, each
    point carrying its stable ``run_id``."""
    try:
        build, _ = GRIDS[grid]
    except KeyError:
        raise LedgerError(f"unknown sweep grid {grid!r}; "
                          f"choose from {sorted(GRIDS)}") from None
    return [dict(pt, run_id=_run_id(pt)) for pt in build()]


def run_point(pt: dict, sinks: _t.Sequence = ()):
    """Run one grid point; returns its SortResult.

    ``sinks`` optionally attaches streaming-telemetry subscribers
    (:class:`~repro.obs.events.Sink`) -- passive by contract, so a
    sweep's ledger bytes are identical with or without them."""
    from repro.hetsort.sorter import HeterogeneousSorter
    from repro.hw.platforms import get_platform
    platform = get_platform(pt["platform"])
    config_kw = {k: pt[k] for k in _CONFIG_KEYS if pt.get(k) is not None}
    sorter = HeterogeneousSorter(platform, n_gpus=pt["n_gpus"],
                                 **config_kw)
    return sorter.sort(n=pt["n"], sinks=sinks)


def ledger_record(result, pt: dict, model: "LowerBoundModel") -> dict:
    """One canonical ledger line: point + measurements + report +
    conformance (also exported onto ``result.metrics``)."""
    run_id = pt.get("run_id") or _run_id(pt)
    report = run_report(result, label=run_id)
    conf = attach_conformance(result, model, report=report)
    return {
        "schema": LEDGER_SCHEMA,
        "run_id": run_id,
        "point": {k: pt[k] for k in
                  ("platform", "approach", "n", "n_gpus", "n_streams",
                   "batch_size", "pinned_elements", "memcpy_threads")},
        "measured": {
            "makespan_s": result.trace.makespan(),
            "elapsed_s": result.elapsed,
            "related_work_s": result.related_work_end_to_end,
            "missing_overhead_s": result.missing_overhead,
            "throughput_el_per_s": result.throughput,
        },
        "report": report,
        "conformance": conf,
    }


def run_sweep(points: _t.Sequence[dict], model_n: int | None = None,
              progress: _t.Callable[[str], None] | None = None
              ) -> list[dict]:
    """Run every point and return its ledger records, deriving (and
    caching) one lower-bound model per (platform, n_gpus).

    ``model_n`` overrides the model's calibration size (None = the
    paper's near-capacity derivation); ``progress`` is called with one
    line per finished run."""
    from repro.hw.platforms import get_platform
    from repro.model.lowerbound import measure_bline_throughput
    models: dict[tuple[str, int], "LowerBoundModel"] = {}
    records = []
    for pt in points:
        key = (pt["platform"], pt["n_gpus"])
        if key not in models:
            models[key] = measure_bline_throughput(
                get_platform(pt["platform"]), n_gpus=pt["n_gpus"],
                n=model_n)
        res = run_point(pt)
        rec = ledger_record(res, pt, models[key])
        records.append(rec)
        if progress is not None:
            c = rec["conformance"]
            progress(f"{rec['run_id']}: measured {c['measured_s']:.4f} s  "
                     f"model {c['predicted_s']:.4f} s  "
                     f"gap {c['gap_s']:+.4f} s")
    return records


def write_ledger(records: _t.Sequence[dict], path) -> None:
    """Write the ledger as canonical JSONL (one compact line per run;
    byte-stable for a deterministic sweep)."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(canonical_json(rec, indent=None))
            fh.write("\n")


def load_ledger(path) -> list[dict]:
    """Read a JSONL ledger back; raises :class:`LedgerError` on an
    unreadable file, malformed or non-object lines, non-finite numbers
    (``NaN``, ``Infinity``) or unknown schemas."""
    return list(read_jsonl(path, LedgerError, "ledger",
                           LEDGER_SCHEMA).values())
