#!/usr/bin/env python
"""Golden gate: check every pinned (scenario, artifact) digest.

Each gate run runs every pinned scenario once and compares each
(scenario, artifact) digest against ``benchmarks/results/golden.json``.
The simulation is deterministic, so every artifact a pinned scenario
emits is a pure function of the code:

* ``report`` -- the canonical run report;
* ``memory`` / ``flows`` -- the memory and flow ledgers;
* ``counters`` -- the gauge summary of a sort;
* ``log`` -- the ``repro.events/v1`` JSONL text a sort or service run
  writes with a :class:`JsonlSink` and a :class:`WatchdogSink` attached;
* ``output`` -- the ``uint64`` bits of a functional sort's output;
* ``verdict`` -- a service verdict;
* ``events`` -- an engine scenario's processed-event count;
* ``ledger`` -- a conformance sweep ledger.

Scenarios come in four kinds: ``sort`` (timing-only, or functional when
the scenario names its ``data``, optionally under named ``faults``),
``serve`` (a timing-only service run over the scenario's tenants),
``engine`` and ``sweep``.  The golden file freezes the SHA-256 of each
artifact's canonical JSON, so any behaviour drift fails the gate and
names the exact pair that moved; ``--update PAIR`` is the one way to
refreeze a pin.  Three checks need a tolerance instead; their frozen
values and bands live in the same file:

* ``makespan`` -- a run report's makespan may not grow by more than
  this fraction;
* ``slope`` -- each fitted conformance slope of the ``ci`` sweep may not
  drift by more than this fraction;
* ``events_floor`` -- an engine scenario's events/s may not fall below
  this fraction of the frozen rate (wall clock on shared runners swings
  2-3x; an order-of-magnitude hot-path regression still trips it).

Each artifact type also has an invariant verifier that needs no golden
value: memory (balanced ledger, zero planner residual), flows (rate
integral, contention sums, span reconciliation), verdict (rate integral,
balanced ledger, identical tenant bytes under every allocator for the
same tenants and seed), log (the schema header, every event valid under
the ``repro.events/v1`` field table, and the scenario's exact per-kind
event counts), output (every special value of the input
survives) and ledger (no run flagged anomalous).  ``--update``
re-freezes the golden file and refuses to when an invariant fails;
``--update PAIR ...`` re-freezes only the named pairs and leaves every
other entry, with its wall-clock bands, byte for byte as it was.

With ``--archive PATH`` every measurement is also appended to a
``repro.archive/v1`` run archive (content-addressed, so deterministic
entries already archived are no-ops) and each failure is classified
against the archived history: one-off miss vs. sustained regression.

Usage::

    python benchmarks/gate.py                  # check every pair
    python benchmarks/gate.py --update         # re-freeze golden.json
    python benchmarks/gate.py --update flow_stress/events  # one pair only
    python benchmarks/gate.py --out DIR        # + one Perfetto trace per sort
    python benchmarks/gate.py --json --archive runs.jsonl

Exit status: 0 = every pair matches, 1 = drift, a broken invariant, or a
malformed golden file.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import io
import json
import math
import os
import re
import sys
import time
import typing as _t

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))

from repro.errors import EventLogError, GoldenError  # noqa: E402
from repro.obs import (EVENTS_SCHEMA, JsonlSink, TelemetryEvent,  # noqa: E402
                       WatchdogSink, canonical_json, validate_events)
from repro.schema import is_number, read_json  # noqa: E402

GOLDEN = os.path.join(_HERE, "results", "golden.json")
GOLDEN_SCHEMA = "repro.golden/v1"
GATE_SCHEMA = "repro.gate/v1"
TOLERANCES = {"makespan": 0.02, "slope": 0.02, "events_floor": 0.25}

#: Tenant classes of the service scenarios; each scenario adds its own
#: job count and size.
_GOLD = {"name": "gold", "priority": 2, "share": 2.0, "rate_hz": 40.0,
         "slo_s": 0.5}
_SILVER = {"name": "silver", "priority": 1, "share": 1.0, "rate_hz": 30.0}
_BATCH = {"name": "batch", "priority": 0, "share": 0.5, "rate_hz": 20.0}

#: The functional PIPEMERGE run the event-log scenarios share.
_FUNCTIONAL = {"kind": "sort", "artifacts": ("log",), "platform": "PLATFORM1",
               "approach": "pipemerge", "n": 200_000,
               "data": ["uniform", 0], "batch_size": 50_000,
               "pinned_elements": 10_000}

#: Every pinned scenario, listed once with the artifacts it emits.  A
#: sort scenario's dict minus ``kind``/``artifacts`` is its archive
#: point, so archived fingerprints stay stable.
SCENARIOS = [
    {"name": "bline_1m", "kind": "sort",
     "artifacts": ("report", "memory", "flows"),
     "platform": "PLATFORM1", "approach": "bline", "n": 1_000_000,
     "pinned_elements": 50_000},
    {"name": "pipemerge_2m", "kind": "sort",
     "artifacts": ("report", "memory", "flows"),
     "platform": "PLATFORM1", "approach": "pipemerge", "n": 2_000_000,
     "batch_size": 250_000, "pinned_elements": 50_000},
    # Two GPUs: a gpu1 pool and PCIe links with concurrent flows.
    {"name": "pipedata_2gpu_2m", "kind": "sort",
     "artifacts": ("memory", "flows"),
     "platform": "PLATFORM2", "approach": "pipedata", "n": 2_000_000,
     "batch_size": 250_000, "pinned_elements": 50_000, "n_gpus": 2},
    # GPU-side merging: three PCIe crossings per key and pair merges whose
    # flows start in the same instant.
    {"name": "gpumerge_2m", "kind": "sort", "artifacts": ("report", "flows"),
     "platform": "PLATFORM1", "approach": "gpumerge", "n": 2_000_000,
     "batch_size": 250_000, "pinned_elements": 50_000},
    # One service run per allocator over the identical seeded job stream.
    *({"name": f"serve_{alloc.replace('-', '_')}", "kind": "serve",
       "artifacts": ("verdict",), "allocator": alloc,
       "tenants": [dict(_GOLD, n_jobs=2, n_elements=50_000),
                   dict(_SILVER, n_jobs=2, n_elements=50_000),
                   dict(_BATCH, n_jobs=2, n_elements=100_000)],
       "seed": 0, "batch_size": 20_000, "pinned_elements": 5_000}
      for alloc in ("fair-share", "max-min", "fixed-levels",
                    "strict-priority")),
    {"name": "pipedata_hotpath", "kind": "engine", "artifacts": ("events",)},
    {"name": "flow_stress", "kind": "engine", "artifacts": ("events",)},
    {"name": "ci", "kind": "sweep", "artifacts": ("ledger",)},
    # The per-chunk hot path: the paper's p_s = 2e5 stages each batch
    # through ~10^3 chunks (staging and async copies, per-copy syncs, the
    # flow ledger and the gauges).
    {"name": "pipemerge_2e8", "kind": "sort",
     "artifacts": ("report", "flows", "counters"),
     "platform": "PLATFORM1", "approach": "pipemerge", "n": 200_000_000,
     "pinned_elements": 200_000},
    # Concurrent tenants under a layered allocator, the QoS path
    # ``FlowNetwork.transfer`` reads.
    {"name": "serve_strict_priority_seed5", "kind": "serve",
     "artifacts": ("verdict",), "allocator": "strict-priority",
     "tenants": [dict(_GOLD, n_jobs=3, n_elements=200_000),
                 dict(_SILVER, n_jobs=3, n_elements=200_000),
                 dict(_BATCH, n_jobs=3, n_elements=400_000)],
     "seed": 5, "batch_size": 50_000, "pinned_elements": 5_000},
    # Event logs covering every emission point: spans, queues, counters,
    # phases, memory and flow events, injected faults with their retries,
    # graceful-degradation replans, and the service's job lifecycle and
    # controller epochs.  ``log_kinds`` are exact per-kind counts.
    dict(_FUNCTIONAL, name="functional_pipemerge",
         log_kinds={"phase": 38, "queue": 180, "counter": 278}),
    dict(_FUNCTIONAL, name="functional_pipemerge_random17", faults=17,
         log_kinds={"fault.injected": 8, "retry.attempt": 8}),
    dict(_FUNCTIONAL, name="functional_pipemerge_pinned50",
         faults=[{"kind": "alloc.pinned", "times": 50}],
         log_kinds={"fault.injected": 8, "retry.attempt": 6,
                    "degrade.replan": 6}),
    {"name": "timing_pipedata_platform2_2gpus", "kind": "sort",
     "artifacts": ("log",), "platform": "PLATFORM2", "approach": "pipedata",
     "n": 2_000_000, "n_gpus": 2,
     "log_kinds": {"mem.alloc": 3, "flow.start": 9}},
    {"name": "timing_service_fixed_levels", "kind": "serve",
     "artifacts": ("log",), "allocator": "fixed-levels",
     "tenants": [dict(_GOLD, n_jobs=2, n_elements=50_000),
                 dict(_BATCH, n_jobs=2, n_elements=100_000)],
     "seed": 3, "batch_size": 20_000, "pinned_elements": 5_000,
     "log_kinds": {"service.job.submit": 4, "service.job.start": 4,
                   "service.job.end": 4, "service.epoch": 3}},
    # Output bits on an input laced with signed zeros, infinities,
    # subnormals and runs of exact duplicates: equal but distinct bit
    # patterns that ``assert_array_equal`` cannot tell apart.
    *({"name": f"special_{approach}", "kind": "sort",
       "artifacts": ("output",), "platform": "PLATFORM1",
       "approach": approach, "n": 60_000, "data": ["special", 2023],
       **({} if approach == "bline" else {"batch_size": 15_000}),
       "pinned_elements": 3_000}
      for approach in ("bline", "blinemulti", "gpumerge", "pipedata",
                       "pipemerge")),
]
PAIRS = [f"{sc['name']}/{art}" for sc in SCENARIOS for art in sc["artifacts"]]

#: Frozen values each artifact type keeps next to its digest.
BANDS = {"report": ("makespan_s",), "events": ("events_per_s",),
         "ledger": ("slopes",)}

#: Archive gate name per artifact (the ``gate:<name>`` entry source).
GATE_NAMES = {"report": "regression", "memory": "memory", "flows": "flows",
              "counters": "counters", "log": "event_log",
              "output": "output", "verdict": "service", "events": "engine",
              "ledger": "conformance"}

_SORT_KWARGS = ("batch_size", "pinned_elements")

#: Values the ``special`` input is laced with.  ``1.5`` is listed twice
#: on purpose: the draw weights are part of the pinned input.
_SPECIALS = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308,
             -2.2e-308, 1.5, 1.5, -1.5)


# ---------------------------------------------------------------------------
# Scenario runners (one run per scenario)
# ---------------------------------------------------------------------------

def special_input(n: int, seed: int):
    """``n`` seeded floats: normals, specials and runs of duplicates."""
    import numpy as np
    rng = np.random.default_rng(seed)
    dup = n // 10
    a = np.concatenate([rng.normal(scale=1e3, size=n - n // 3 - dup),
                        rng.choice(np.array(_SPECIALS), size=n // 3),
                        np.repeat(rng.random(dup // 10), 10)])
    rng.shuffle(a)
    return a


def _input(sc):
    """A functional scenario's input: ``data`` names a distribution (or
    ``special``) and its seed."""
    from repro.workloads import generate
    dist, seed = sc["data"]
    return (special_input(sc["n"], seed) if dist == "special"
            else generate(sc["n"], dist, seed=seed))


def _faults(spec):
    """A scenario's fault plan: a seed names ``FaultPlan.random(seed)``,
    a list holds the plan's fault specs."""
    from repro.sim.faults import FaultPlan, FaultSpec
    if isinstance(spec, int):
        return FaultPlan.random(spec)
    return FaultPlan(faults=tuple(FaultSpec.from_dict(f) for f in spec))


def _run_sort(sc, sinks):
    from repro.hetsort import HeterogeneousSorter
    from repro.hw.platforms import get_platform
    sorter = HeterogeneousSorter(
        get_platform(sc["platform"]), approach=sc["approach"],
        n_gpus=sc.get("n_gpus", 1),
        **{k: sc[k] for k in _SORT_KWARGS if k in sc})
    kw = {"sinks": sinks,
          "faults": _faults(sc["faults"]) if "faults" in sc else None}
    if "data" in sc:
        return sorter.sort(_input(sc), **kw)
    return sorter.sort(n=sc["n"], **kw)


def _run_serve(sc, sinks):
    from repro.service import ServiceConfig, Tenant, run_service
    return run_service(
        tuple(Tenant(**t) for t in sc["tenants"]),
        ServiceConfig(allocator=sc["allocator"], seed=sc["seed"],
                      functional=False, batch_size=sc["batch_size"],
                      pinned_elements=sc["pinned_elements"]),
        sinks=sinks)


def _pipedata_hotpath():
    """The sorter hot path: a mid-size PIPEDATA run on the multi-GPU
    platform (the fig11 configuration, scaled for CI)."""
    from repro.hetsort import HeterogeneousSorter
    from repro.hw.platforms import get_platform
    return HeterogeneousSorter(get_platform("PLATFORM2"), n_gpus=2,
                               approach="pipedata", n_streams=2,
                               batch_size=1_000_000,
                               pinned_elements=100_000).sort(n=80_000_000)


def _flow_stress():
    """Allocator-dominated storm: hundreds of concurrent flows over
    disjoint link components (the workload the incremental water-filling
    recompute exists for)."""
    from repro.sim.bandwidth import FlowNetwork
    from repro.sim.engine import Environment
    env = Environment()
    net = FlowNetwork(env)
    links = [net.add_link(f"l{i}", 10e9) for i in range(32)]

    def prog(i):
        for _ in range(4):
            yield net.transfer(1e8 + i * 1e5, links=[links[i % 32]])

    for i in range(32 * 12):
        env.process(prog(i), name=f"p{i}")
    env.run()
    return env


#: Engine scenario -> (run it, read its processed-event count).
_ENGINE = {
    "pipedata_hotpath": (
        _pipedata_hotpath,
        lambda res: res.metrics["engine"]["processed_events"]),
    "flow_stress": (_flow_stress, lambda env: env.processed_events),
}


def _run_engine(sc, sinks):
    """Run an engine scenario; returns its exact event count (the
    environment's ``processed_events``) and its wall-clock throughput."""
    run, count = _ENGINE[sc["name"]]
    t0 = time.perf_counter()
    done = run()
    wall_s = time.perf_counter() - t0
    events = count(done)
    return {"events": events, "events_per_s": events / wall_s,
            "wall_s": wall_s}


def _run_sweep(sc, sinks):
    from repro.obs import run_sweep
    from repro.obs.sweep import GRIDS, sweep_points
    return run_sweep(sweep_points(sc["name"]), model_n=GRIDS[sc["name"]][1])


RUNNERS = {"sort": _run_sort, "serve": _run_serve, "engine": _run_engine,
           "sweep": _run_sweep}


# ---------------------------------------------------------------------------
# Artifacts: (canonical document, invariant failures, banded values,
# archive-entry builder taking the pair's gate verdict)
# ---------------------------------------------------------------------------

def _broken(what: str, check: dict) -> list[str]:
    return ([] if check["ok"]
            else [f"{what} ({'; '.join(check['failures'][:3])})"])


def _metric_entries(sc, metrics: dict):
    """Entry builder for an artifact archived as flat metrics under a
    ``{"gate", "scenario"}`` point."""
    from repro.obs import make_entry
    return lambda gate: [make_entry(
        source=f"gate:{gate['gate']}", label=sc["name"],
        point={"gate": gate["gate"], "scenario": sc["name"]},
        metrics=metrics, verdicts=[gate])]


def _report(sc, res, ctx):
    from repro.obs import entry_from_result, run_report
    report = run_report(res, label=sc["name"])
    point = {k: v for k, v in sc.items() if k not in ("kind", "artifacts")}

    def entries(gate):
        return [entry_from_result(res, source=f"gate:{gate['gate']}",
                                  label=sc["name"], point=point,
                                  report=report, verdicts=[gate])]
    return report, [], {"makespan_s": report["makespan_s"]}, entries


def _memory(sc, res, ctx):
    from repro.hw.platforms import get_platform
    from repro.obs import measured_peaks, memory_conformance, plan_memory
    peaks = {p: int(b) for p, b in measured_peaks(res).items()}
    mem = res.metrics["memory"]
    plan = plan_memory(get_platform(sc["platform"]), sc["n"],
                       approach=sc["approach"], n_gpus=sc.get("n_gpus", 1),
                       **{k: sc[k] for k in _SORT_KWARGS if k in sc})
    conf = memory_conformance(plan, peaks)
    broken = []
    if not mem["balanced"]:
        broken.append(f"ledger did not balance to zero ({mem['n_allocs']} "
                      f"allocs, {mem['n_frees']} frees)")
    if not conf["ok"]:
        broken.append("planner residual outside tolerance (" + "; ".join(
            f"{p}: predicted {v['predicted_bytes']} B, measured "
            f"{v['measured_bytes']} B"
            for p, v in conf["pools"].items() if not v["ok"]) + ")")
    metrics = {"peak_pinned_bytes": peaks.get("pinned", 0),
               "mem_allocs": mem["n_allocs"], "mem_frees": mem["n_frees"],
               **{f"peak_device_bytes.{p}": b for p, b in peaks.items()
                  if p != "pinned"}}
    return (res.memory_ledger.to_dict(), broken, {},
            _metric_entries(sc, metrics))


def _flows(sc, res, ctx):
    from repro.obs import (attribute_contention, reconcile_flow_spans,
                           verify_contention, verify_rate_integral)
    doc = res.flow_ledger.to_dict()
    broken = (_broken("rate integral broke", verify_rate_integral(doc))
              + _broken("contention charges did not sum to duration",
                        verify_contention(attribute_contention(doc)))
              + _broken("flow/span reconciliation failed",
                        reconcile_flow_spans(doc, res.trace)))
    flows = res.metrics["flows"]
    metrics = {k: flows[k] for k in ("n_flows", "link_peak_utilization",
                                     "transfer_contention_s")}
    return doc, broken, {}, _metric_entries(sc, metrics)


def _verdict(sc, res, ctx):
    from repro.errors import MemoryLedgerError
    from repro.obs import verify_rate_integral
    from repro.service import archive_entry
    verdict = res.verdict
    broken = _broken(f"rate integral broke under {sc['allocator']}",
                     verify_rate_integral(res.flow_ledger.to_dict()))
    try:
        res.memory_ledger.check_balanced()
    except MemoryLedgerError as exc:
        broken.append(f"memory ledger unbalanced ({exc})")
    # Allocators change when bytes move, never which bytes move: every
    # run of the same tenants and seed moves the first one's bytes.
    tb = verdict["flows"]["tenant_bytes"]
    ref = ctx.setdefault(canonical_json([sc["tenants"], sc["seed"]],
                                        indent=None), tb)
    if any(abs(tb[t] - ref[t]) > 1e-6 * max(ref[t], 1.0) for t in ref):
        broken.append("per-tenant bytes moved differ from the first run of "
                      "the same tenants (allocators must not change the "
                      "work)")

    def entries(gate):
        return [archive_entry(verdict, label=sc["name"], gate_verdicts=[gate],
                              source=f"gate:{gate['gate']}")]
    return verdict, broken, {}, entries


def _counters(sc, res, ctx):
    doc = res.recorder.summary(res.elapsed)
    metrics = {"counter_series": len(doc),
               "counter_samples": sum(c["samples"] for c in doc.values())}
    return doc, [], {}, _metric_entries(sc, metrics)


def _log(sc, run, ctx):
    header, *lines = ctx["log"].splitlines()
    broken = ([] if header == canonical_json({"schema": EVENTS_SCHEMA},
                                             indent=None)
              else [f"schema header is {header!r}"])
    docs = [json.loads(ln) for ln in lines]
    try:    # a line without the envelope fails the sequence check
        validate_events([TelemetryEvent(d.get("kind"), d.get("t"),
                                        d.get("seq"), d.get("data", {}))
                         for d in docs])
    except EventLogError as exc:
        broken.append(f"violates {EVENTS_SCHEMA}: {exc}")
    counts = collections.Counter(d["kind"] for d in docs)
    broken += [f"{counts[kind]} {kind} events, expected {want}"
               for kind, want in sc["log_kinds"].items()
               if counts[kind] != want]
    metrics = {f"events.{kind}": counts[kind] for kind in sc["log_kinds"]}
    return ctx["log"], broken, {}, _metric_entries(sc, metrics)


def _output(sc, res, ctx):
    import numpy as np
    bits = res.output.view(np.uint64)
    # The sorter validated the output against its input, so each special
    # bit pattern in the output is one the input was laced with.
    specials = np.array(_SPECIALS)
    lost = specials[~np.isin(specials.view(np.uint64), bits)]
    broken = ([f"output lost the special values {lost.tolist()}"]
              if len(lost) else [])
    return (bits.tolist(), broken, {},
            _metric_entries(sc, {"n_keys": len(bits)}))


def _events(sc, run, ctx):
    metrics = {k: run[k] for k in ("events", "events_per_s", "wall_s")}
    return ({"events": run["events"]}, [],
            {"events_per_s": run["events_per_s"]},
            _metric_entries(sc, metrics))


def _ledger(sc, records, ctx):
    from repro.obs import conformance_summary, entry_from_ledger
    summary = conformance_summary(records)
    flagged = {a["run_id"]: a for a in summary["anomalies"]}
    broken = [f"{a['run_id']} ({a['group']}): anomalous -- measured "
              f"{a['measured_s']:.6f}s vs fit {a['expected_s']:.6f}s "
              f"({'/'.join(a['flags'])})" for a in summary["anomalies"]]
    slopes = {k: g["fitted_slope"] for k, g in summary["groups"].items()}

    def entries(gate):
        # One entry per grid run, carrying that run's own anomaly verdict.
        out = []
        for r in records:
            a = flagged.get(r["run_id"])
            run_gate = {"gate": gate["gate"], "ok": a is None,
                        "failures": ([f"{r['run_id']}: anomalous "
                                      f"({'/'.join(a['flags'])})"]
                                     if a else [])}
            out.append(entry_from_ledger(r, source=f"gate:{gate['gate']}",
                                         verdicts=[run_gate]))
        return out
    return records, broken, {"slopes": slopes}, entries


ARTIFACTS = {"report": _report, "memory": _memory, "flows": _flows,
             "counters": _counters, "log": _log, "output": _output,
             "verdict": _verdict, "events": _events, "ledger": _ledger}


def sha256(doc) -> str:
    return hashlib.sha256(canonical_json(doc, indent=None).encode()
                          ).hexdigest()


def run_corpus(out_dir: str | None = None) -> dict[str, dict]:
    """Run every scenario once; returns ``{pair: {"sha256", "bands",
    "invariants", "entries"}}``.  ``out_dir`` also receives one Perfetto
    trace per sort scenario.  A scenario with a ``log`` artifact runs
    with a JSONL and a watchdog sink attached; the log text reaches its
    artifact as ``ctx["log"]``."""
    measured: dict[str, dict] = {}
    ctx: dict = {}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for sc in SCENARIOS:
        log = io.StringIO()
        sinks = ([JsonlSink(log), WatchdogSink()]
                 if "log" in sc["artifacts"] else [])
        run = RUNNERS[sc["kind"]](sc, sinks)
        ctx["log"] = log.getvalue()
        if out_dir and sc["kind"] == "sort":
            from repro.reporting import write_chrome_trace
            write_chrome_trace(run.trace, os.path.join(
                out_dir, f"{sc['name']}.trace.json"), counters=run.recorder)
        for art in sc["artifacts"]:
            doc, invariants, bands, entries = ARTIFACTS[art](sc, run, ctx)
            measured[f"{sc['name']}/{art}"] = {
                "sha256": sha256(doc), "bands": bands,
                "invariants": invariants, "entries": entries}
    return measured


# ---------------------------------------------------------------------------
# The golden file
# ---------------------------------------------------------------------------

_HEX = re.compile(r"[0-9a-f]{64}")


def _finite(where: str, value) -> None:
    if not (is_number(value) and math.isfinite(value)):
        raise GoldenError(f"{where} must be a finite number, "
                          f"got {value!r}")


def load_golden(path: str, refreeze: _t.Collection[str] = ()) -> dict:
    """Read and validate a ``repro.golden/v1`` document; raises
    :class:`~repro.errors.GoldenError` on any malformation.  Pairs named
    in ``refreeze`` are about to be re-frozen and may be missing."""
    doc = read_json(path, GoldenError, "golden file", GOLDEN_SCHEMA)
    tolerances, pairs = doc.get("tolerances"), doc.get("pairs")
    if not isinstance(tolerances, dict) or set(tolerances) != set(TOLERANCES):
        raise GoldenError(f"{path}: tolerances must hold exactly "
                          f"{sorted(TOLERANCES)}")
    for key, value in tolerances.items():
        _finite(f"{path}: tolerances.{key}", value)
    if not isinstance(pairs, dict):
        raise GoldenError(f"{path}: 'pairs' must be an object")
    missing = [p for p in PAIRS if p not in pairs and p not in refreeze]
    unknown = sorted(set(pairs) - set(PAIRS))
    if missing or unknown:
        raise GoldenError(f"{path}: missing pairs {missing}, "
                          f"unknown pairs {unknown}")
    for pair, frozen in pairs.items():
        bands = BANDS.get(pair.split("/")[1], ())
        if not isinstance(frozen, dict) or set(frozen) != {"sha256", *bands}:
            raise GoldenError(f"{path}: {pair} must hold exactly "
                              f"{['sha256', *bands]}")
        if not (isinstance(frozen["sha256"], str)
                and _HEX.fullmatch(frozen["sha256"])):
            raise GoldenError(f"{path}: {pair} sha256 is not 64 lowercase "
                              f"hex digits: {frozen['sha256']!r}")
        for key in bands:
            values = frozen[key] if key == "slopes" else {key: frozen[key]}
            if not isinstance(values, dict):
                raise GoldenError(f"{path}: {pair} {key} must be an object")
            for name, value in values.items():
                _finite(f"{path}: {pair} {name}", value)
    return doc


def freeze(measured: dict[str, dict]) -> dict:
    """The golden document for a measured corpus."""
    return {"schema": GOLDEN_SCHEMA, "tolerances": dict(TOLERANCES),
            "pairs": {pair: {"sha256": m["sha256"], **m["bands"]}
                      for pair, m in measured.items()}}


def _band_failures(bands: dict, frozen: dict, tol: dict) -> list[str]:
    out = []
    if "makespan_s" in bands:
        base, cur = frozen["makespan_s"], bands["makespan_s"]
        if cur > base * (1.0 + tol["makespan"]):
            out.append(f"makespan regressed {base:.6f}s -> {cur:.6f}s "
                       f"({(cur - base) / base:+.2%}, tolerance "
                       f"{tol['makespan']:.0%})")
    if "events_per_s" in bands:
        base, cur = frozen["events_per_s"], bands["events_per_s"]
        if cur < base * tol["events_floor"]:
            out.append(f"throughput {cur:,.0f} ev/s below floor "
                       f"{base * tol['events_floor']:,.0f} "
                       f"({tol['events_floor']:.0%} of frozen {base:,.0f})")
    if "slopes" in bands:
        base, cur = frozen["slopes"], bands["slopes"]
        for group in sorted(set(base) ^ set(cur)):
            out.append(f"group {group} "
                       + ("vanished from the grid" if group in base
                          else "missing from golden"))
        for group in sorted(set(base) & set(cur)):
            drift = (abs(cur[group] - base[group]) / base[group]
                     if base[group] else 0.0)
            if drift > tol["slope"]:
                out.append(f"{group}: fitted slope drifted {drift:.2%} "
                           f"({base[group]:.6e} -> {cur[group]:.6e}, "
                           f"tolerance {tol['slope']:.0%})")
    return out


def check(golden: dict, measured: dict[str, dict]) -> dict[str, list[str]]:
    """``{pair: failure messages}`` (empty list = the pair passes); every
    message starts with its pair."""
    failures = {}
    for pair, m in measured.items():
        frozen = golden["pairs"][pair]
        msgs = list(m["invariants"])
        if m["sha256"] != frozen["sha256"]:
            msgs.append(f"digest {frozen['sha256']} -> {m['sha256']}")
        msgs += _band_failures(m["bands"], frozen, golden["tolerances"])
        failures[pair] = [f"{pair}: {msg}" for msg in msgs]
    return failures


def _classify(failures: dict, entries: dict, history: list[dict]) -> None:
    """Suffix each failing pair's messages with its trend verdict: did
    the archived runs of the same fingerprint fail this gate too?"""
    from repro.obs.trends import classify_miss
    for pair, msgs in failures.items():
        if not msgs:
            continue
        first = next((e for e in entries[pair] if not e["verdicts"][0]["ok"]),
                     entries[pair][0])
        gate = first["verdicts"][0]["gate"]
        prior = [any(v["gate"] == gate and not v["ok"] for v in e["verdicts"])
                 for e in history if e["fingerprint"] == first["fingerprint"]]
        note = classify_miss(prior)["message"]
        failures[pair] = [f"{msg} [{note}]" for msg in msgs]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--update", nargs="*", metavar="PAIR",
                   help="re-run the corpus and rewrite golden.json, or "
                        "only the named PAIRs of it (refused when an "
                        "invariant fails)")
    p.add_argument("--json", action="store_true",
                   help="print one repro.gate/v1 document on stdout "
                        "(progress lines go to stderr)")
    p.add_argument("--archive", metavar="PATH",
                   help="append every measurement to a repro.archive/v1 "
                        "archive and classify failures against its history")
    p.add_argument("--out", metavar="DIR",
                   help="write one Perfetto trace per sort scenario "
                        "into DIR")
    args = p.parse_args(argv)
    info = sys.stderr if args.json else sys.stdout

    unknown = sorted(set(args.update or ()) - set(PAIRS))
    if unknown:
        p.error(f"unknown pairs {unknown}; choose from {PAIRS}")
    golden = None
    if args.update != []:
        try:
            golden = load_golden(GOLDEN, refreeze=args.update or ())
        except GoldenError as exc:
            print(f"golden file rejected: {exc}", file=sys.stderr)
            return 1
    measured = run_corpus(args.out)

    if args.update is not None:
        broken = [f"{pair}: {msg}" for pair, m in measured.items()
                  for msg in m["invariants"]]
        for msg in broken:
            print(f"INVARIANT: {msg}", file=sys.stderr)
        if broken:
            print("refusing to freeze a golden file from a run that broke "
                  "an invariant", file=sys.stderr)
            return 1
        fresh = freeze(measured)
        if args.update:
            for pair in args.update:
                golden["pairs"][pair] = fresh["pairs"][pair]
            fresh = golden
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(fresh) + "\n")
        print(f"golden file updated: {GOLDEN} "
              f"({len(args.update or measured)} pairs)", file=info)
        return 0

    failures = check(golden, measured)
    for pair, m in measured.items():
        bands = ", ".join(f"{k}={v:.6g}" for k, v in m["bands"].items()
                          if not isinstance(v, dict))
        print(f"{pair}: {'FAIL' if failures[pair] else 'ok'}  "
              f"{m['sha256'][:16]}  {bands}".rstrip(), file=info)
    entries = {pair: m["entries"]({"gate": GATE_NAMES[pair.split("/")[1]],
                                   "ok": not failures[pair],
                                   "failures": failures[pair]})
               for pair, m in measured.items()}
    flat = [e for pair in PAIRS for e in entries[pair]]
    if args.archive:
        from repro.obs import append_entries, load_archive
        history = (load_archive(args.archive)
                   if os.path.exists(args.archive) else [])
        _classify(failures, entries, history)
        fresh = append_entries(args.archive, flat)
        print(f"archived {len(fresh)} of {len(flat)} entries to "
              f"{args.archive}", file=info)
    failed = [msg for pair in PAIRS for msg in failures[pair]]
    if args.json:
        print(canonical_json({"schema": GATE_SCHEMA, "gate": "golden",
                              "ok": not failed, "failures": failed,
                              "entries": flat}, indent=None))
    else:
        for msg in failed:
            print(f"REGRESSION: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
