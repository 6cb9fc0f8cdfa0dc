"""The repository benchmark: wall-clock cost of the reproduction itself.

    python3 perfbench/run.py --workload paper_scale_timing --seed 1 \
        --seconds 28 --trace 0

Runs one named workload (see ``scenarios.py``) in fresh worker processes
(``worker.py``) and prints each metric with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` gives the end-to-end metrics, measured with tracing off:
``keys_per_s`` (simulated keys for the timing-only workloads), ``setup_s``
(process start to the first timed operation) and ``peak_rss_mb``, each the
median over ``SETUP_REPEATS`` worker processes that split the ``--seconds``
budget; ``keys_per_s`` is the median over all their operations.  Both
times are rescaled to a quiet host (``calibration.py``); the raw
wall-clock medians are printed as notes.  ``failed``/``attempted`` is the
error rate.  ``--trace 1`` gives the per-layer metrics from one traced
worker.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from calibration import calibrate, to_quiet

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper_scale_timing", "functional_sort", "serve_contended")

#: Worker processes per untraced run: set-up is measured once in each.
SETUP_REPEATS = 2
#: A run must end within 180 s: a worker still running this long after
#: the run started is killed, and the run fails.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"keys_per_s": "keys/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "plan.make_plan_calls": "count", "plan.make_plan_s": "s",
    "engine.run_s": "s", "engine.self_s": "s", "engine.events": "count",
    "engine.events_per_s": "1/s",
    "trace.spans": "count", "trace.record_s": "s",
    "bandwidth.transfers": "count", "bandwidth.transfer_s": "s",
    "allocators.fill_calls": "count", "allocators.fill_s": "s",
    "obs.compute_metrics_s": "s", "obs.flow_summary_s": "s",
    "obs.memory_s": "s",
    "kernels.radix_calls": "count", "kernels.radix_s": "s",
    "kernels.radix_keys_per_s": "keys/s", "kernels.merge_s": "s",
    "kernels.samplesort_s": "s", "kernels.op_share": "fraction",
    "validate.check_s": "s",
    "service.jobs": "count", "service.verdict_s": "s",
    "trace_overhead_frac": "fraction",
}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; returns its start instant
    (``time.monotonic``, the clock the worker reports in) and its result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(deadline - t_spawn, 0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    rates: list[float] = []
    raw_rates: list[float] = []
    setups: list[float] = []
    raw_setups: list[float] = []
    rss: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    for _ in range(SETUP_REPEATS):
        ref_spawn = calibrate()
        t_spawn, res = run_worker(workload, seed, seconds / SETUP_REPEATS, 0,
                                  deadline)
        keys = res["keys_per_op"]
        for wall, (before, after) in zip(res["op_s"], res["ref_s"]):
            rates.append(keys / to_quiet(wall, before, after))
            raw_rates.append(keys / wall)
        # The worker's first calibration reading follows its set-up.
        setup = res["t_first_op"] - t_spawn
        setups.append(to_quiet(setup, ref_spawn, res["ref_first_s"]))
        raw_setups.append(setup)
        rss.append(res["peak_rss_mb"])
        attempted += res["attempted"]
        failed += res["failed"]
        errors += res["errors"]
    metrics = {
        "keys_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = [f"keys_per_s samples: {len(rates)} operations of "
             f"{keys} keys",
             f"raw wall-clock medians: keys_per_s "
             f"{statistics.median(raw_rates) if rates else 0.0:.6g}, "
             f"setup_s {statistics.median(raw_setups):.6g}",
             f"error_rate: {failed / attempted:.6g} (ratio, "
             f"{failed} of {attempted} operations failed)"]
    return metrics, END_TO_END_UNITS, attempted, failed, errors, notes


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    _, res = run_worker(workload, seed, seconds, 1, deadline)
    notes = [f"traced operations: {res['traced_ops']}"]
    return (res["layers"], PER_LAYER_UNITS, res["attempted"], res["failed"],
            res["errors"], notes)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, units, attempted, failed, errors, notes = measure(
            args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for err in errors:
        print(f"failed operation: {err}", file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: no reading for {missing}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for name in units:
        print(f"  {name:28s} {metrics[name]:>18.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
