"""Regenerate ``pins.json``: the simulated results the benchmark checks.

    PYTHONPATH=src python3 perfbench/make_pins.py

Pins the timing-only makespan of ``paper_scale_timing`` (the same for
every seed) and every job's simulated latency of ``serve_contended`` for
seeds 0..SERVE_SEEDS-1.  A change that moves any of these moves a paper
result, so regenerating the pins needs a reason of its own.
"""

from __future__ import annotations

import json

from scenarios import PINS_PATH, SCENARIOS

SERVE_SEEDS = 32


def _run(name: str, seed: int):
    sc = SCENARIOS[name]
    return sc.outcome(sc.operate(sc.setup(seed)))


def main() -> None:
    pins = {
        "paper_scale_timing": {
            "makespan_s": _run("paper_scale_timing", 0).makespan_s},
        "serve_contended": {
            str(seed): _run("serve_contended", seed).output
            for seed in range(SERVE_SEEDS)},
    }
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
