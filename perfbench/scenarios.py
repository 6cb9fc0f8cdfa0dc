"""The benchmark's workloads, built only on the public ``repro`` API.

Each :class:`Scenario` turns a seed into inputs (``setup``), runs one
operation on them (``operate``) and checks an operation's outcome
(``check``).  The operation is the timed region; input generation and the
output checks stay outside it.

* ``paper_scale_timing`` -- timing-only PIPEMERGE on PLATFORM1 at the
  paper's n=2e9: engine, runners, trace, fair-share bandwidth and the
  post-run analyses do all the work, the numpy kernels none.
* ``functional_sort`` -- functional PIPEMERGE that really sorts 2e6 seeded
  uniform keys: the numpy kernels dominate, the engine is small.
* ``serve_contended`` -- a timing-only three-tenant ``run_service`` under
  the strict-priority allocator: many concurrent flows share links under a
  layered policy, with no post-run summary and no kernel.
"""

from __future__ import annotations

import json
import pathlib
import typing as _t
from dataclasses import dataclass

import numpy as np

from repro import HeterogeneousSorter, PLATFORM1
from repro.service import ServiceConfig, Tenant, poisson_arrivals, run_service
from repro.workloads import generate

PINS_PATH = pathlib.Path(__file__).resolve().parent / "pins.json"

PAPER_N = 2_000_000_000
PAPER_PINNED = 200_000

FUNCTIONAL_N = 2_000_000
FUNCTIONAL_BATCH = 250_000
FUNCTIONAL_PINNED = 50_000

SERVE_BATCH = 250_000
SERVE_PINNED = 25_000
SERVE_JOBS_PER_TENANT = 12
#: (name, priority, share, rate_hz, n_elements, slo_s)
SERVE_TENANTS = (
    ("gold", 2, 2.0, 40.0, 2_000_000, 0.5),
    ("silver", 1, 1.0, 30.0, 2_000_000, None),
    ("batch", 0, 0.5, 20.0, 4_000_000, None),
)


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks and the
    traced/untraced identity comparison need."""

    makespan_s: float          #: simulated end of the run
    spans: int                 #: spans in the result's trace
    transfers: int             #: flows in the result's flow ledger
    output: _t.Any = None      #: sorted keys, or latency by job id
    events: int | None = None  #: processed engine events, when captured


@dataclass(frozen=True)
class Scenario:
    name: str
    keys_per_op: int
    setup: _t.Callable[[int], dict]
    operate: _t.Callable[[dict], _t.Any]
    outcome: _t.Callable[[_t.Any], Outcome]
    check: _t.Callable[[dict, Outcome, int], None]


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _sort_outcome(res) -> Outcome:
    return Outcome(makespan_s=res.elapsed, spans=len(res.trace.spans),
                   transfers=res.flow_ledger.n_flows, output=res.output)


# -- paper_scale_timing ------------------------------------------------------

def _paper_setup(seed: int) -> dict:
    # A timing-only sort has no key data: its input is the size alone, so
    # every seed gives the same operation.
    return {"sorter": HeterogeneousSorter(PLATFORM1,
                                          pinned_elements=PAPER_PINNED)}


def _paper_operate(state: dict):
    return state["sorter"].sort(n=PAPER_N, approach="pipemerge")


def _paper_check(state: dict, out: Outcome, seed: int) -> None:
    pinned = state["pins"]["paper_scale_timing"]["makespan_s"]
    if out.makespan_s != pinned:
        raise CheckFailed(f"makespan {out.makespan_s!r} != pinned {pinned!r}")


# -- functional_sort ---------------------------------------------------------

def _functional_setup(seed: int) -> dict:
    data = generate(FUNCTIONAL_N, "uniform", seed=seed)
    return {
        "data": data,
        "expected": np.sort(data),
        "sorter": HeterogeneousSorter(PLATFORM1, batch_size=FUNCTIONAL_BATCH,
                                      pinned_elements=FUNCTIONAL_PINNED),
    }


def _functional_operate(state: dict):
    return state["sorter"].sort(data=state["data"], approach="pipemerge")


def _functional_check(state: dict, out: Outcome, seed: int) -> None:
    if not np.array_equal(out.output, state["expected"]):
        raise CheckFailed("output differs from np.sort of the input")


# -- serve_contended ---------------------------------------------------------

def serve_tenants(seed: int) -> list[Tenant]:
    """The three tenants, with Poisson arrival traces drawn from ``seed``."""
    tenants = []
    for i, (name, prio, share, rate, n, slo) in enumerate(SERVE_TENANTS):
        rng = np.random.default_rng([seed, i])
        arrivals = poisson_arrivals(rate, SERVE_JOBS_PER_TENANT, rng)
        tenants.append(Tenant(name=name, priority=prio, share=share,
                              slo_s=slo, n_elements=n,
                              arrivals=tuple(float(t) for t in arrivals)))
    return tenants


def _serve_setup(seed: int) -> dict:
    return {
        "tenants": serve_tenants(seed),
        "config": ServiceConfig(allocator="strict-priority", functional=False,
                                batch_size=SERVE_BATCH,
                                pinned_elements=SERVE_PINNED),
    }


def _serve_operate(state: dict):
    return run_service(state["tenants"], state["config"])


def _serve_outcome(res) -> Outcome:
    return Outcome(makespan_s=res.elapsed, spans=len(res.trace.spans),
                   transfers=res.flow_ledger.n_flows,
                   output={r["job_id"]: r["latency_s"] for r in res.jobs})


def _serve_check(state: dict, out: Outcome, seed: int) -> None:
    pinned = state["pins"]["serve_contended"].get(str(seed))
    if pinned is None:
        # No pin for this seed: the first (warm-up) operation is the
        # reference, so every later one must reproduce it exactly.
        pinned = state.setdefault("reference", out.output)
    got = out.output
    if got != pinned:
        bad = sorted(k for k in set(got) | set(pinned)
                     if got.get(k) != pinned.get(k))
        raise CheckFailed(f"job latencies differ from the pins: {bad[:4]}")


SCENARIOS: dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("paper_scale_timing", PAPER_N, _paper_setup, _paper_operate,
                 _sort_outcome, _paper_check),
        Scenario("functional_sort", FUNCTIONAL_N, _functional_setup,
                 _functional_operate, _sort_outcome, _functional_check),
        Scenario("serve_contended",
                 sum(t[4] for t in SERVE_TENANTS) * SERVE_JOBS_PER_TENANT,
                 _serve_setup,
                 _serve_operate, _serve_outcome, _serve_check),
    )
}
