#!/usr/bin/env python
"""Golden gate: check every pinned (scenario, artifact) digest.

Each gate run runs every pinned scenario once and compares each
(scenario, artifact) digest against ``benchmarks/results/golden.json``.
The simulation is deterministic, so every artifact a pinned scenario
emits -- run report, memory and flow ledgers, service verdict, engine
event count, sweep ledger -- is a pure function of the code.  The golden
file freezes the SHA-256 of each artifact's canonical JSON, so any
behaviour drift fails the gate and names the exact pair that moved.
Three checks need a tolerance instead; their frozen values and bands
live in the same file:

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
balanced ledger, identical tenant bytes under every allocator) and
ledger (no run flagged anomalous).  ``--update`` re-freezes the golden
file and refuses to when an invariant fails.

With ``--archive PATH`` every measurement is also appended to a
``repro.archive/v1`` run archive (content-addressed, so deterministic
entries already archived are no-ops) and each failure is classified
against the archived history: one-off miss vs. sustained regression.

Usage::

    python benchmarks/gate.py                  # check every pair
    python benchmarks/gate.py --update         # re-freeze golden.json
    python benchmarks/gate.py --out DIR        # + Perfetto traces, profile
    python benchmarks/gate.py --json --archive runs.jsonl

Exit status: 0 = every pair matches, 1 = drift, a broken invariant, or a
malformed golden file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))

from repro.errors import GoldenError  # noqa: E402
from repro.obs import canonical_json  # noqa: E402

GOLDEN = os.path.join(_HERE, "results", "golden.json")
GOLDEN_SCHEMA = "repro.golden/v1"
GATE_SCHEMA = "repro.gate/v1"
TOLERANCES = {"makespan": 0.02, "slope": 0.02, "events_floor": 0.25}

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
    # One service run per allocator over the identical seeded job stream.
    *({"name": f"serve_{alloc.replace('-', '_')}", "kind": "serve",
       "artifacts": ("verdict",), "allocator": alloc}
      for alloc in ("fair-share", "max-min", "fixed-levels",
                    "strict-priority")),
    {"name": "pipedata_hotpath", "kind": "engine", "artifacts": ("events",)},
    {"name": "flow_stress", "kind": "engine", "artifacts": ("events",)},
    {"name": "ci", "kind": "sweep", "artifacts": ("ledger",)},
]
PAIRS = [f"{sc['name']}/{art}" for sc in SCENARIOS for art in sc["artifacts"]]

#: Frozen values each artifact type keeps next to its digest.
BANDS = {"report": ("makespan_s",), "events": ("events_per_s",),
         "ledger": ("slopes",)}

#: Archive gate name per artifact (the ``gate:<name>`` entry source).
GATE_NAMES = {"report": "regression", "memory": "memory", "flows": "flows",
              "verdict": "service", "events": "engine",
              "ledger": "conformance"}

_SORT_KWARGS = ("batch_size", "pinned_elements")


# ---------------------------------------------------------------------------
# Scenario runners (one run per scenario)
# ---------------------------------------------------------------------------

def _run_sort(sc):
    from repro.hetsort import HeterogeneousSorter
    from repro.hw.platforms import get_platform
    sorter = HeterogeneousSorter(
        get_platform(sc["platform"]), approach=sc["approach"],
        n_gpus=sc.get("n_gpus", 1),
        **{k: sc[k] for k in _SORT_KWARGS if k in sc})
    return sorter.sort(n=sc["n"])


def _run_serve(sc):
    from repro.service import ServiceConfig, Tenant, run_service
    tenants = (
        Tenant("gold", priority=2, share=2.0, rate_hz=40.0, n_jobs=2,
               n_elements=50_000, slo_s=0.5),
        Tenant("silver", priority=1, share=1.0, rate_hz=30.0, n_jobs=2,
               n_elements=50_000),
        Tenant("batch", priority=0, share=0.5, rate_hz=20.0, n_jobs=2,
               n_elements=100_000),
    )
    return run_service(tenants, ServiceConfig(
        allocator=sc["allocator"], seed=0, functional=False,
        batch_size=20_000, pinned_elements=5_000))


def _pipedata_hotpath():
    """The sorter hot path: a mid-size PIPEDATA run on the multi-GPU
    platform (the fig11 configuration, scaled for CI)."""
    from repro.hetsort import HeterogeneousSorter
    from repro.hw.platforms import get_platform
    HeterogeneousSorter(get_platform("PLATFORM2"), n_gpus=2,
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


_ENGINE = {"pipedata_hotpath": _pipedata_hotpath,
           "flow_stress": _flow_stress}


def _run_engine(sc):
    """Run an engine scenario under the profile hooks; returns its exact
    event count, wall-clock throughput and the profile snapshot."""
    from repro.obs import profile as prof
    prof.reset_profiling()
    prof.enable_profiling()
    try:
        _ENGINE[sc["name"]]()
    finally:
        prof.disable_profiling()
    snap = prof.snapshot()
    stats = snap["sim.engine.run"]
    return {"events": stats.elements, "events_per_s": stats.elements_per_s,
            "wall_s": stats.total_s,
            "profile": {k: s.to_dict() for k, s in snap.items()}}


def _run_sweep(sc):
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


def _metric_entries(sc, metrics: dict, profile: dict | None = None):
    """Entry builder for an artifact archived as flat metrics under a
    ``{"gate", "scenario"}`` point."""
    from repro.obs import make_entry
    return lambda gate: [make_entry(
        source=f"gate:{gate['gate']}", label=sc["name"],
        point={"gate": gate["gate"], "scenario": sc["name"]},
        metrics=metrics, profile=profile, verdicts=[gate])]


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
    # Allocators change when bytes move, never which bytes move.
    tb = verdict["flows"]["tenant_bytes"]
    ref = ctx.setdefault("tenant_bytes", tb)
    if any(abs(tb[t] - ref[t]) > 1e-6 * max(ref[t], 1.0) for t in ref):
        broken.append("per-tenant bytes moved differ from the fair-share "
                      "run (allocators must not change the work)")

    def entries(gate):
        return [archive_entry(verdict, label=sc["name"], gate_verdicts=[gate],
                              source=f"gate:{gate['gate']}")]
    return verdict, broken, {}, entries


def _events(sc, run, ctx):
    metrics = {k: run[k] for k in ("events", "events_per_s", "wall_s")}
    return ({"events": run["events"]}, [],
            {"events_per_s": run["events_per_s"]},
            _metric_entries(sc, metrics, profile=run["profile"]))


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
             "verdict": _verdict, "events": _events, "ledger": _ledger}


def sha256(doc) -> str:
    return hashlib.sha256(canonical_json(doc, indent=None).encode()
                          ).hexdigest()


def run_corpus(out_dir: str | None = None) -> dict[str, dict]:
    """Run every scenario once; returns ``{pair: {"sha256", "bands",
    "invariants", "entries"}}``.  ``out_dir`` also receives one Perfetto
    trace per sort scenario and the engine profile snapshot."""
    measured: dict[str, dict] = {}
    ctx: dict = {}
    engine: dict = {}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for sc in SCENARIOS:
        run = RUNNERS[sc["kind"]](sc)
        if out_dir and sc["kind"] == "sort":
            from repro.reporting import write_chrome_trace
            write_chrome_trace(run.trace, os.path.join(
                out_dir, f"{sc['name']}.trace.json"), counters=run.recorder)
        if sc["kind"] == "engine":
            engine[sc["name"]] = run
        for art in sc["artifacts"]:
            doc, invariants, bands, entries = ARTIFACTS[art](sc, run, ctx)
            measured[f"{sc['name']}/{art}"] = {
                "sha256": sha256(doc), "bands": bands,
                "invariants": invariants, "entries": entries}
    if out_dir:
        with open(os.path.join(out_dir, "engine_profile.json"), "w") as fh:
            fh.write(canonical_json({
                "schema": "repro.engine_profile/v1",
                "scenarios": {n: r["profile"] for n, r in engine.items()},
                "measured": {n: {k: r[k] for k in ("events", "events_per_s",
                                                   "wall_s")}
                             for n, r in engine.items()}}) + "\n")
    return measured


# ---------------------------------------------------------------------------
# The golden file
# ---------------------------------------------------------------------------

_HEX = re.compile(r"[0-9a-f]{64}")


def _finite(where: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise GoldenError(f"{where} must be a finite number, "
                          f"got {value!r}")


def load_golden(path: str) -> dict:
    """Read and validate a ``repro.golden/v1`` document; raises
    :class:`~repro.errors.GoldenError` on any malformation."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise GoldenError(f"{path}: unreadable ({exc})") from None
    if not isinstance(doc, dict) or doc.get("schema") != GOLDEN_SCHEMA:
        raise GoldenError(f"{path}: not a {GOLDEN_SCHEMA} document")
    tolerances, pairs = doc.get("tolerances"), doc.get("pairs")
    if not isinstance(tolerances, dict) or set(tolerances) != set(TOLERANCES):
        raise GoldenError(f"{path}: tolerances must hold exactly "
                          f"{sorted(TOLERANCES)}")
    for key, value in tolerances.items():
        _finite(f"{path}: tolerances.{key}", value)
    if not isinstance(pairs, dict):
        raise GoldenError(f"{path}: 'pairs' must be an object")
    missing = [p for p in PAIRS if p not in pairs]
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
    p.add_argument("--update", action="store_true",
                   help="re-run the corpus and rewrite golden.json "
                        "(refused when an invariant fails)")
    p.add_argument("--json", action="store_true",
                   help="print one repro.gate/v1 document on stdout "
                        "(progress lines go to stderr)")
    p.add_argument("--archive", metavar="PATH",
                   help="append every measurement to a repro.archive/v1 "
                        "archive and classify failures against its history")
    p.add_argument("--out", metavar="DIR",
                   help="write one Perfetto trace per sort scenario and "
                        "the engine profile snapshot into DIR")
    args = p.parse_args(argv)
    info = sys.stderr if args.json else sys.stdout

    golden = None
    if not args.update:
        try:
            golden = load_golden(GOLDEN)
        except GoldenError as exc:
            print(f"golden file rejected: {exc}", file=sys.stderr)
            return 1
    measured = run_corpus(args.out)

    if args.update:
        broken = [f"{pair}: {msg}" for pair, m in measured.items()
                  for msg in m["invariants"]]
        for msg in broken:
            print(f"INVARIANT: {msg}", file=sys.stderr)
        if broken:
            print("refusing to freeze a golden file from a run that broke "
                  "an invariant", file=sys.stderr)
            return 1
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(freeze(measured)) + "\n")
        print(f"golden file updated: {GOLDEN} ({len(measured)} pairs)",
              file=info)
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
