"""One measurement process: set up one workload, run it, check it.

Started by ``run.py`` in a fresh interpreter, so the set-up time it
reports starts at process start and its peak resident memory is its own.
Prints one JSON object on its last stdout line.

Untraced (``--trace 0``): one discarded warm-up operation, then timed
operations, started until ``--seconds`` have passed since the first.
Before the first timed operation and after every one, it times
:func:`calibration.calibrate`, which reads how fast the shared host runs
the interpreter at that moment.

Traced (``--trace 1``): one warm-up, then pairs of one untraced and one
traced operation.  The untraced one gives the tracing overhead's base and
the reference for the identity check: tracing must not change the
simulated makespan, the engine event count, the span count or the
transfer count.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback

from calibration import calibrate
from layers import LayerTracer, capture_environments
from scenarios import SCENARIOS, CheckFailed, load_pins


def _identity(outcome) -> tuple:
    return (outcome.makespan_s, outcome.events, outcome.spans,
            outcome.transfers)


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, scenario, seed: int) -> None:
        self.scenario = scenario
        self.seed = seed
        self.state = scenario.setup(seed)
        self.state["pins"] = load_pins()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, tracer: LayerTracer | None = None):
        """One operation; returns ``(wall_s, outcome)``, outcome ``None``
        when the operation raised or its check failed."""
        gc.collect()
        self.attempted += 1
        try:
            if tracer is None:
                with capture_environments() as envs:
                    t0 = time.perf_counter()
                    res = self.scenario.operate(self.state)
                    wall = time.perf_counter() - t0
            else:
                with tracer.installed():
                    t0 = time.perf_counter()
                    res = self.scenario.operate(self.state)
                    wall = time.perf_counter() - t0
            outcome = self.scenario.outcome(res)
            del res
            if tracer is None:
                outcome.events = sum(e.processed_events for e in envs)
            self.scenario.check(self.state, outcome, self.seed)
        except CheckFailed as exc:
            return self.fail(f"check: {exc}")
        except Exception:  # noqa: BLE001 - a failed operation is counted
            return self.fail(traceback.format_exc(limit=3))
        return wall, outcome

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)
        return None, None


def untraced(runner: Runner, budget_s: float) -> dict:
    """Timed operations, each with the calibration readings just before
    and just after it (``ref_s``); a failed operation keeps no sample.
    ``ref_first_s``, the first reading, directly follows the set-up."""
    runner.run()  # warm-up, discarded
    t_first = time.monotonic()
    walls: list[float] = []
    refs: list[tuple[float, float]] = []
    ref_first = before = calibrate()
    while time.monotonic() - t_first < budget_s:
        wall, _ = runner.run()
        after = calibrate()
        if wall is not None:
            walls.append(wall)
            refs.append((before, after))
        before = after
    return {"t_first_op": t_first, "ref_first_s": ref_first, "op_s": walls,
            "ref_s": refs}


def traced(runner: Runner, budget_s: float) -> dict:
    runner.run()  # warm-up, discarded
    t_start = time.monotonic()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    while True:
        t_pair = time.monotonic()
        wall_u, out_u = runner.run()
        tracer = LayerTracer()
        wall_t, out_t = runner.run(tracer)
        if out_u is not None and out_t is not None:
            got = tracer.metrics(wall_t)
            out_t.events = got["engine.events"]
            # The traced counts are the wrappers' own; they must match
            # both the untraced run and the traced run's result.
            seen = (out_t.makespan_s, got["engine.events"],
                    got["trace.spans"], got["bandwidth.transfers"])
            if _identity(out_u) == _identity(out_t) == seen:
                plain_walls.append(wall_u)
                traced_walls.append(wall_t)
                layers.append(got)
            else:
                runner.fail(f"tracing changed the run: untraced "
                             f"{_identity(out_u)}, traced {seen}")
        pair_s = time.monotonic() - t_pair
        if time.monotonic() - t_start + pair_s > budget_s:
            break
    metrics = {}
    if layers:
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in layers[0]}
        metrics["trace_overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(plain_walls)
                                          - 1.0)
    return {"layers": metrics, "traced_ops": len(layers)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runner = Runner(SCENARIOS[args.workload], args.seed)
    body = (traced if args.trace else untraced)(runner, args.seconds)
    body.update(
        keys_per_op=runner.scenario.keys_per_op,
        attempted=runner.attempted, failed=runner.failed,
        errors=runner.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())
