"""Command-line interface: run heterogeneous sorts from the shell.

One argparse command tree: the bare run is the default command, and
``python -m repro --help`` lists every subcommand.

Examples
--------
Paper-scale timing run (Fig. 9's fastest configuration)::

    python -m repro --n 5e9 --approach pipemerge --batch-size 5e8 \
        --memcpy-threads 8

Functional run with validation and a timeline::

    python -m repro --functional 200000 --batch-size 50000 --gantt

Compare every approach at one size::

    python -m repro --n 2e9 --batch-size 2e8 --compare

Observability report (utilization, overlap matrix, counters)::

    python -m repro metrics --n 2e9 --batch-size 2e8 --approach pipedata

Causal analysis -- where did the makespan go, and what would change::

    python -m repro critical-path --n 2e9 --batch-size 2e8 --gantt
    python -m repro whatif --n 2e9 --batch-size 2e8 --scale GPUSort=0.5

Regression workflow -- freeze a run, compare a later one against it::

    python -m repro --n 2e9 --batch-size 2e8 --report before.json
    ... change something ...
    python -m repro --n 2e9 --batch-size 2e8 --report after.json
    python -m repro diff before.json after.json --fail-on-regression

Conformance workflow -- sweep a grid, confront the lower-bound model::

    python -m repro sweep --grid small --ledger ledger.jsonl
    python -m repro conformance --ledger ledger.jsonl --html dash.html

Live telemetry -- watch a run as it executes, keep the event log::

    python -m repro --n 2e9 --batch-size 2e8 --live --events run.events.jsonl
    python -m repro watch run.events.jsonl

Chaos -- inject deterministic faults, verify the run still sorts::

    python -m repro chaos --fault-seed 7 --approach pipemerge \
        --plan-out plan.json --events chaos.events.jsonl
    python -m repro --functional 200000 --faults plan.json

Trend observatory -- archive every run, watch metrics drift over time::

    python -m repro --n 2e9 --batch-size 2e8 --archive runs.jsonl
    python -m repro archive runs.jsonl --list
    python -m repro trends runs.jsonl --html trends.html
    python -m repro archive runs.jsonl --diff 1a2b3c 4d5e6f

Memory observatory -- occupancy, watermarks, the capacity planner::

    python -m repro mem --n 2e9 --batch-size 2e8 --approach pipedata
    python -m repro plan-mem --platform PLATFORM2 --gpus 2 --n 4e9
    python -m repro plan-mem --n 1e6 --approach bline --verify

Interconnect observatory -- link saturation, contention attribution::

    python -m repro flows --n 2e9 --batch-size 2e8 --approach pipedata
    python -m repro flows --platform PLATFORM2 --gpus 2 --n 2e9 \
        --html flows.html

Multi-tenant service -- stream seeded sort jobs under a QoS bandwidth
allocator, compare per-tenant tail latencies::

    python -m repro serve --allocator strict-priority --json
    python -m repro serve --allocator max-min --html service.html \
        --tenant gold:2:2:40:3:200000:0.5 --tenant batch:0:0.5:20:3:400000
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from repro.hetsort import HeterogeneousSorter, cpu_reference_sort
from repro.hetsort.config import Approach
from repro.hw.platforms import get_platform
from repro.obs import canonical_json
from repro.obs.conformance import REL_TOLERANCE, Z_THRESHOLD
from repro.obs.memory import PLAN_TOLERANCE
from repro.obs.sweep import GRIDS
from repro.obs.trends import K_THRESHOLD, MIN_REL
from repro.reporting import render_gantt, render_metrics_table, render_table
from repro.sim.allocators import ALLOCATORS
from repro.workloads import generate

__all__ = ["main", "build_parser"]


@contextlib.contextmanager
def _writes(path, label: str):
    """Guard one output-file write: create the parent directory first
    and turn any OSError into a clean one-line :class:`SystemExit`
    instead of a traceback.  Every subcommand that writes an output
    file wraps the write in this."""
    parent = os.path.dirname(os.path.abspath(os.fspath(path)))
    try:
        os.makedirs(parent, exist_ok=True)
        yield
    except OSError as exc:
        raise SystemExit(f"repro: cannot write {label} to {path!r}: "
                         f"{exc.strerror or exc}") from None


def _write_html(path, label: str, writer, out) -> None:
    """The shared ``--html`` exit ramp: parent-dir creation and the
    clean error path via :func:`_writes`, then one uniform confirmation
    line.  ``writer`` is called with the destination path; a falsy path
    is a no-op."""
    if not path:
        return
    with _writes(path, label):
        writer(path)
    out.write(f"wrote {label} to {path}\n")


# ---------------------------------------------------------------------------
# The command tree
# ---------------------------------------------------------------------------

#: Flags shared between commands, each declared once.  A command takes
#: the ones it accepts through :func:`_parent`.
_FLAGS = {
    "--platform": dict(default="PLATFORM1",
                       help="PLATFORM1 (GP100) or PLATFORM2 (2x K40m)"),
    "--gpus": dict(type=int, default=1, help="GPUs to use"),
    "--approach": dict(default="pipemerge", choices=Approach.ALL),
    "--batch-size": dict(type=float, default=None,
                         help="b_s elements per batch (default: maximal)"),
    "--streams": dict(type=int, default=2, help="n_s streams per GPU"),
    "--pinned": dict(type=float, default=1e6,
                     help="p_s pinned staging elements"),
    "--memcpy-threads": dict(type=int, default=1,
                             help="> 1 enables PARMEMCPY"),
    "--n": dict(type=float, default=None,
                help="timing-only input size (e.g. 5e9)"),
    "--functional": dict(type=int, default=None, metavar="N",
                         help="really sort N random doubles and validate"),
    "--distribution": dict(default="uniform",
                           help="input distribution for --functional"),
    "--seed": dict(type=int, default=0, help="input-data seed"),
    "--trace-json": dict(metavar="PATH", default=None,
                         help="write a chrome://tracing / Perfetto JSON "
                              "(spans + counter tracks + causal flow "
                              "arrows)"),
    "--report": dict(metavar="PATH", default=None,
                     help="write the run report JSON (input to `repro "
                          "diff` and the regression gate)"),
    "--faults": dict(metavar="PATH", default=None,
                     help="attach a repro.faults/v1 fault plan (JSON, see "
                          "`repro chaos`); injected faults are retried / "
                          "degraded deterministically"),
    "--json": dict(action="store_true",
                   help="print the command's document as canonical JSON "
                        "instead of text"),
    "--html": dict(metavar="PATH", default=None,
                   help="write the self-contained HTML dashboard"),
    "--events": dict(metavar="PATH", default=None,
                     help="write the repro.events/v1 JSONL event log "
                          "(replayable; input to `repro watch`)"),
    "--archive": dict(metavar="PATH", default=None,
                      help="append to a repro.archive/v1 archive "
                           "(content-addressed, idempotent; input to "
                           "`repro trends`)"),
}

#: The machine knobs, and everything one run-shaped command takes.
_MACHINE = ("--platform", "--gpus", "--approach", "--batch-size",
            "--streams", "--pinned")
_RUN = _MACHINE + ("--memcpy-threads", "--n", "--functional",
                   "--distribution", "--seed", "--trace-json", "--report",
                   "--faults", "--json")


def _parent(*flags) -> argparse.ArgumentParser:
    """A parent parser declaring the shared ``flags``.  Built afresh
    per command: ``set_defaults`` on a child rewrites the defaults of
    the actions it inherited, so commands must not share them."""
    p = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    """The command tree.  The root parser is the default command (a
    bare ``python -m repro --n ...`` run); every subcommand is
    registered once with its handler.  A subcommand's namespace starts
    from the root's defaults, so a run flag it does not declare reads
    as None / False."""
    root = argparse.ArgumentParser(
        prog="repro-hetsort",
        description="Hybrid CPU/GPU sorting on a simulated platform "
                    "(IPPS 2018 reproduction).",
        parents=[_parent(*_RUN, "--events", "--archive")])
    root.add_argument("--compare", action="store_true",
                      help="run every approach plus the CPU reference")
    root.add_argument("--gantt", action="store_true",
                      help="print an ASCII timeline of the run")
    root.add_argument("--live", action="store_true",
                      help="render live progress while the run executes "
                           "(progress bars on a TTY, periodic plain lines "
                           "otherwise)")
    root.add_argument("--deadline", type=float, default=None, metavar="S",
                      help="emit a watchdog warning event if the simulated "
                           "run passes S seconds")
    root.set_defaults(func=_cmd_run, parser=root)
    sub = root.add_subparsers(dest="command", title="commands",
                              metavar="COMMAND")

    def command(name, func, flags, help, description, **defaults):
        p = sub.add_parser(name, parents=[_parent(*flags)], help=help,
                           description=description)
        p.set_defaults(func=func, parser=p, **defaults)
        return p

    command("metrics", _cmd_metrics, _RUN,
            "observability metrics of one run",
            "Run one sort and report its observability metrics: "
            "per-lane utilization, the category-overlap matrix, "
            "overlap efficiency, link goodput and live counters.")

    p = command("critical-path", _cmd_critical_path, _RUN,
                "attribute one run's makespan along its critical path",
                "Run one sort and attribute its makespan along the "
                "causal critical path: which dependency chain bound the "
                "run, per category and per lane, with slack.")
    p.add_argument("--gantt", action="store_true",
                   help="print the timeline with the critical path "
                        "highlighted and per-lane slack")
    p.add_argument("--limit", type=int, default=12,
                   help="path steps to show in the table (0 = all)")

    p = command("whatif", _cmd_whatif, _RUN,
                "predict the makespan with rescaled span categories",
                "Run one sort, then predict the makespan if selected "
                "span categories were k times their duration, by "
                "re-scheduling the recorded causal DAG.  Without "
                "--scale, prints a sensitivity sweep over every "
                "category.")
    p.add_argument("--scale", action="append", default=[],
                   metavar="CAT=K",
                   help="scale category CAT's durations by factor K "
                        "(repeatable; e.g. --scale GPUSort=0.5)")

    p = command("diff", _cmd_diff, ("--json",),
                "compare two run reports",
                "Structurally compare two run reports written with "
                "--report: makespan / per-category / per-lane / "
                "critical-path deltas plus span shapes added, removed "
                "or recounted.")
    p.add_argument("report_a", help="baseline report JSON")
    p.add_argument("report_b", help="candidate report JSON")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="relative makespan growth to tolerate "
                        "(e.g. 0.02 = 2%%)")
    p.add_argument("--min-rel", type=float, default=0.0,
                   help="hide rows whose relative change is smaller")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="exit 1 when the makespan regressed beyond "
                        "--tolerance or the trace structure changed")

    p = command("sweep", _cmd_sweep, ("--archive",),
                "run a named grid into a sweep ledger",
                "Run a named (approach x n x streams x platform) grid "
                "and persist every run as one canonical JSONL line -- "
                "the sweep ledger (byte-stable: a same-seed sweep writes "
                "identical bytes).")
    p.add_argument("--grid", default="small", choices=sorted(GRIDS),
                   help="named grid to run (default: small)")
    p.add_argument("--ledger", metavar="PATH",
                   default="sweep-ledger.jsonl",
                   help="JSONL ledger to write (default: "
                        "sweep-ledger.jsonl)")
    p.add_argument("--model-n", type=float, default=None,
                   help="override the lower-bound model's calibration "
                        "size (default: the grid's own)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-run progress lines")

    p = command("conformance", _cmd_conformance, ("--html", "--json"),
                "confront a sweep ledger with the lower-bound model",
                "Confront a sweep ledger with the Sec. IV-G lower-bound "
                "model: per-group fitted slopes with R2 vs. the paper's, "
                "per-run residual attribution, and anomaly flags.  "
                "Optionally renders the self-contained HTML dashboard.")
    p.add_argument("--ledger", metavar="PATH", required=True,
                   help="JSONL sweep ledger written by `repro sweep`")
    p.add_argument("--z-threshold", type=float, default=Z_THRESHOLD,
                   help=f"anomaly z-score threshold (default "
                        f"{Z_THRESHOLD:g})")
    p.add_argument("--tolerance", type=float, default=REL_TOLERANCE,
                   help="anomaly relative-deviation threshold (default "
                        f"{REL_TOLERANCE:g})")
    p.add_argument("--fail-on-anomaly", action="store_true",
                   help="exit 1 when any run is flagged anomalous")

    p = command("watch", _cmd_watch, ("--json",),
                "replay a repro.events/v1 event log",
                "Replay a repro.events/v1 JSONL event log (written with "
                "`repro ... --events`): validate it, print periodic "
                "progress lines in simulated time, and end with the "
                "final aggregated snapshot.")
    p.add_argument("events", help="JSONL event log to watch")
    p.add_argument("--interval", type=float, default=0.25, metavar="S",
                   help="simulated seconds between progress lines "
                        "(default 0.25)")

    p = command("chaos", _cmd_chaos,
                _MACHINE + ("--memcpy-threads", "--functional",
                            "--distribution", "--seed", "--events",
                            "--json", "--archive"),
                "sort under a deterministic fault plan",
                "Run one *functional* sort under a deterministic fault "
                "plan (transient PCIe faults, allocation failures, "
                "device loss, bandwidth windows) and verify the output "
                "is still a sorted permutation.  Exit 0: survived "
                "(recovered/degraded); exit 3: the run failed with a "
                "typed error.  Same seed, same bytes.",
                functional=100_000)
    p.add_argument("--fault-seed", type=int, default=None,
                   help="generate a random fault plan from this seed")
    p.add_argument("--plan", metavar="PATH", default=None,
                   help="load an explicit repro.faults/v1 plan instead")
    p.add_argument("--plan-out", metavar="PATH", default=None,
                   help="write the (generated) plan as canonical JSON")

    p = command("archive", _cmd_archive, ("--json",),
                "inspect a repro.archive/v1 run archive",
                "Inspect a repro.archive/v1 run archive: validate its "
                "content hashes and manifest sidecar, list the archived "
                "runs, or diff the canonical run reports of two entries "
                "(cross-run span aggregation).")
    p.add_argument("archive", help="archive JSONL (written with "
                                   "--archive or appended by the gates)")
    p.add_argument("--list", action="store_true",
                   help="print one table row per archived entry")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                   help="diff two entries by (unique prefix of) entry id")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="relative makespan growth --diff tolerates")
    p.add_argument("--min-rel", type=float, default=0.0,
                   help="hide --diff rows with a smaller relative change")

    p = command("trends", _cmd_trends, ("--json", "--html"),
                "per-metric history over a run archive",
                "The trend observatory: per-metric history over a run "
                "archive, keyed by workload fingerprint, with EWMA "
                "smoothing, robust (MAD-scored) changepoint detection, "
                "regime-local anomaly flags and re-baseline (ratchet) "
                "proposals.")
    p.add_argument("archive", help="archive JSONL to analyse")
    p.add_argument("--metric", action="append", default=[],
                   help="metric(s) to track (repeatable; default: the "
                        "standard set)")
    p.add_argument("--fingerprint", metavar="FP", default=None,
                   help="restrict to one workload fingerprint "
                        "(unique prefix accepted)")
    p.add_argument("--ewma", type=float, default=0.3, metavar="ALPHA",
                   help="EWMA smoothing weight (default 0.3)")
    p.add_argument("--k", type=float, default=K_THRESHOLD,
                   help="changepoint score threshold in noise sigmas "
                        f"(default {K_THRESHOLD:g})")
    p.add_argument("--min-rel", type=float, default=MIN_REL,
                   help="minimum relative step for a changepoint "
                        f"(default {MIN_REL:g})")

    p = command("mem", _cmd_mem, _RUN + ("--html",),
                "allocation ledger of one run",
                "Run one sort and report its repro.memory/v1 allocation "
                "ledger: per-pool peak occupancy, capacity headroom, the "
                "leak verdict, and a peak-preserving ASCII occupancy "
                "timeline per pool.")
    p.add_argument("--width", type=int, default=60,
                   help="timeline buckets per pool (default 60)")
    p.add_argument("--entries", action="store_true",
                   help="also print every ledger entry (alloc/free, "
                        "timestamp, running balance)")

    p = command("plan-mem", _cmd_plan_mem, _MACHINE + ("--json",),
                "predict peak memory from the batch plan alone",
                "Analytic capacity planner: predict peak device and "
                "pinned occupancy from the batch plan alone -- no "
                "simulation -- and check it against the platform's "
                "capacities.  Exit 0: the configuration fits; exit 1: "
                "predicted oversubscription (or a --verify residual "
                "outside tolerance); exit 2: the planner rejected the "
                "configuration outright.")
    p.add_argument("--n", type=float, required=True,
                   help="input size to plan for (e.g. 5e9)")
    p.add_argument("--verify", action="store_true",
                   help="also run the (timing) sort and confront the "
                        "prediction with the measured peaks")
    p.add_argument("--tolerance", type=float, default=PLAN_TOLERANCE,
                   help="--verify relative residual tolerance "
                        f"(default {PLAN_TOLERANCE:g})")

    p = command("flows", _cmd_flows, _RUN + ("--html",),
                "interconnect flow ledger of one run",
                "Run one sort and report its repro.flows/v1 interconnect "
                "flow ledger: per-link peak bandwidth/utilization, "
                "bucket-max link timelines, flows-in-flight, and "
                "contention attribution (each transfer's duration split "
                "into isolation time plus slowdown charged to the "
                "concurrent flows sharing its links -- charges sum to "
                "the duration bit for bit).")
    p.add_argument("--width", type=int, default=60,
                   help="timeline buckets per link (default 60)")
    p.add_argument("--top", type=int, default=10,
                   help="contended flows to list (default 10)")

    p = command("serve", _cmd_serve,
                ("--platform", "--seed", "--batch-size", "--streams",
                 "--pinned", "--json", "--html", "--events", "--archive"),
                "simulate a multi-tenant sort service",
                "Simulate a multi-tenant sort service: seeded synthetic "
                "tenants submit open-loop job streams, a shared machine "
                "admits and runs them under a pluggable per-link "
                "bandwidth allocator, and the outcome is a byte-stable "
                "repro.service/v1 verdict (per-tenant latency "
                "percentiles, Jain fairness index, SLO hit rate).  "
                "Per-job defaults: --batch-size 25000, --pinned 25000.",
                batch_size=25_000, pinned=25_000)
    p.add_argument("--allocator", default="fair-share",
                   choices=sorted(ALLOCATORS),
                   help="per-link bandwidth policy (default fair-share)")
    p.add_argument("--tenant", action="append", metavar="SPEC",
                   default=None,
                   help="add a tenant as name:priority:share:rate_hz:"
                        "n_jobs:n_elements[:slo_s]; repeatable "
                        "(default: a gold/silver/batch demo trio)")
    p.add_argument("--timing", action="store_true",
                   help="skip real data movement and output validation "
                        "(timing-only jobs; much faster)")
    p.add_argument("--gpus-per-job", type=int, default=1,
                   help="devices each job sorts across (default 1)")
    p.add_argument("--max-concurrent", type=int, default=8,
                   help="admission cap on running jobs (default 8)")
    p.add_argument("--no-controller", action="store_true",
                   help="disable the adaptive level controller "
                        "(fixed-levels only)")
    p.add_argument("--epoch", type=float, default=0.05, metavar="S",
                   help="controller period in simulated seconds "
                        "(default 0.05)")
    p.add_argument("--reclaim", type=float, default=0.9,
                   help="idle-level fraction loaned per epoch "
                        "(default 0.9)")
    p.add_argument("--label", default="serve",
                   help="archive entry label (default 'serve')")
    return root


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.errors import FaultPlanError, PlanError
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is not None and argv[0] != args.command:
        parser.error(f"options go after the command name "
                     f"{args.command!r}")
    try:
        return args.func(args, out)
    except (FaultPlanError, PlanError) as exc:
        prog = " ".join(filter(None, ("repro", args.command)))
        out.write(f"{prog}: {exc}\n")
        return 2


# ---------------------------------------------------------------------------
# The run path and the finishing step
# ---------------------------------------------------------------------------

def _event_log(path) -> list:
    """``[JsonlSink(path)]`` for an ``--events`` path, else ``[]``."""
    if not path:
        return []
    from repro.obs import JsonlSink
    with _writes(path, "event log"):
        return [JsonlSink(path)]


def _build_sinks(args, out) -> list:
    """Streaming-telemetry sinks for the bare run (--live / --events /
    --deadline); empty when none was requested."""
    if not (args.live or args.events or args.deadline is not None):
        return []
    from repro.obs import TtySink, WatchdogSink
    sinks = [WatchdogSink(deadline_s=args.deadline)]
    sinks += _event_log(args.events)
    if args.live:
        from repro.model.lowerbound import measure_bline_throughput
        model = measure_bline_throughput(get_platform(args.platform),
                                         n_gpus=args.gpus)
        # ~20 plain progress lines over the model-predicted duration, so
        # non-TTY output is useful at any run scale.
        n = int(args.n) if args.n is not None else args.functional
        sinks.append(TtySink(out=out, model_slope=model.slope,
                             plain_interval_s=model.seconds(n) / 20))
    return sinks


def _run(args, out, sinks=None, faults=None, **overrides):
    """The one run path of every run-shaped command: check the input
    flags, load ``--faults`` (a :class:`~repro.errors.FaultPlanError`
    exits 2 in :func:`main`), open the telemetry sinks, generate the
    data and sort.  ``sinks`` / ``faults`` replace the flag-built ones
    (``repro chaos``); ``overrides`` are per-run config fields
    (``--compare``)."""
    if (args.n is None) == (args.functional is None):
        args.parser.error("pass exactly one of --n or --functional")
    if args.json and args.report:
        args.parser.error("--json and --report are mutually exclusive; "
                          "--json prints the document, --report writes it")
    if faults is None and args.faults:
        from repro.sim.faults import FaultPlan
        faults = FaultPlan.load(args.faults)
    sorter = HeterogeneousSorter(
        get_platform(args.platform), n_gpus=args.gpus,
        approach=args.approach, n_streams=args.streams,
        batch_size=int(args.batch_size) if args.batch_size else None,
        pinned_elements=int(args.pinned),
        memcpy_threads=args.memcpy_threads)
    if sinks is None:
        sinks = _build_sinks(args, out)
    overrides.setdefault("approach", args.approach)
    if args.functional is not None:
        data = generate(args.functional, args.distribution, seed=args.seed)
        return sorter.sort(data, sinks=sinks, faults=faults, **overrides)
    return sorter.sort(n=int(args.n), sinks=sinks, faults=faults,
                       **overrides)


def _finish(args, out, res=None, entries=list, events_note=True) -> None:
    """The shared exit ramp of every command that writes run output:
    the ``--trace-json`` and ``--report`` of ``res``, the note for the
    ``--events`` log its sinks wrote, and ``entries()`` appended to
    ``--archive`` (called only when an archive is given)."""
    if args.trace_json:
        from repro.obs.flows import flow_rate_counters
        from repro.reporting import write_chrome_trace
        # Merge the interconnect observatory's link-bandwidth step
        # series (`link.<name>.bw_bytes_per_s`) into the recorder's
        # counter tracks for the Perfetto export.
        counters = dict(getattr(res.recorder, "series", None) or {})
        counters.update(flow_rate_counters(res.flow_ledger.to_dict()))
        with _writes(args.trace_json, "trace JSON"):
            count = write_chrome_trace(res.trace, args.trace_json,
                                       counters=counters)
        out.write(f"wrote {count} trace events to {args.trace_json}\n")
    if args.report:
        from repro.obs import run_report, write_report
        with _writes(args.report, "run report"):
            write_report(run_report(res), args.report)
        out.write(f"wrote run report to {args.report}\n")
    if res is not None and args.events and events_note:
        out.write(f"wrote event log to {args.events}\n")
    if args.archive:
        from repro.errors import ArchiveError
        from repro.obs import append_entries
        entries = entries()
        with _writes(args.archive, "archive"):
            try:
                fresh = append_entries(args.archive, entries)
            except ArchiveError as exc:
                raise SystemExit(f"repro: cannot append to archive "
                                 f"{args.archive!r}: {exc}") from None
        skipped = len(entries) - len(fresh)
        note = f" ({skipped} already archived)" if skipped else ""
        out.write(f"archived {len(fresh)} entr"
                  f"{'y' if len(fresh) == 1 else 'ies'} to "
                  f"{args.archive}{note}\n")


# ---------------------------------------------------------------------------
# Run-shaped commands
# ---------------------------------------------------------------------------

def _cmd_run(args, out) -> int:
    if args.compare:
        return _compare(args, out)
    res = _run(args, out)
    if args.json:
        out.write(canonical_json(res.to_dict()) + "\n")
    else:
        if args.functional is not None:
            out.write("output validated: sorted permutation of the input\n")
        out.write(res.summary() + "\n")
        if args.gantt:
            out.write(render_gantt(res.trace) + "\n")
    from repro.obs import entry_from_result
    _finish(args, out, res, lambda: [
        entry_from_result(res, source="run", label=args.approach)])
    return 0


def _compare(args, out) -> int:
    """``--compare``: every pipelined approach (plus PARMEMCPY) against
    the CPU reference at one ``--n``.  It runs several sorts, so the
    single-run flags are rejected rather than silently dropped."""
    single = [flag for flag, on in (
        ("--report", args.report), ("--trace-json", args.trace_json),
        ("--events", args.events), ("--archive", args.archive),
        ("--faults", args.faults), ("--live", args.live),
        ("--deadline", args.deadline is not None),
        ("--gantt", args.gantt)) if on]
    if single:
        args.parser.error(f"--compare runs several sorts and takes no "
                          f"single-run flag: {', '.join(single)}")
    if args.n is None:
        args.parser.error("--compare needs --n")
    platform = get_platform(args.platform)
    n = int(args.n)
    ref = cpu_reference_sort(platform, n=n)
    runs = [{"approach": "cpu reference", "elapsed_s": ref.elapsed,
             "speedup": 1.0}]
    for approach in ("blinemulti", "pipedata", "pipemerge"):
        for threads in ((1, args.memcpy_threads)
                        if args.memcpy_threads > 1 else (1,)):
            res = _run(args, out, approach=approach,
                       memcpy_threads=threads)
            tag = approach + ("+parmemcpy" if threads > 1 else "")
            runs.append({"approach": tag, "elapsed_s": res.elapsed,
                         "speedup": ref.elapsed / res.elapsed})
    if args.json:
        doc = {"schema": "repro.compare/v1", "platform": platform.name,
               "n": n, "n_gpus": args.gpus, "runs": runs}
        out.write(canonical_json(doc) + "\n")
        return 0
    rows = [[r["approach"], f"{r['elapsed_s']:.3f}",
             f"{r['speedup']:.2f}"] for r in runs]
    out.write(render_table(["approach", "time [s]", "speedup"], rows,
                           title=f"{platform.name}, n={n:.2e}") + "\n")
    return 0


def _cmd_metrics(args, out) -> int:
    res = _run(args, out)
    if args.json:
        out.write(canonical_json(res.metrics) + "\n")
    else:
        out.write(res.summary() + "\n\n")
        out.write(render_metrics_table(res.metrics) + "\n")
    _finish(args, out, res)
    return 0


def _cmd_critical_path(args, out) -> int:
    from repro.obs import critical_path_report
    res = _run(args, out)
    graph = res.causal_graph()
    report = critical_path_report(graph)
    if args.json:
        out.write(canonical_json(report) + "\n")
        _finish(args, out, res)
        return 0
    out.write(res.summary() + "\n\n")
    makespan = report["makespan"] or 1.0
    out.write(render_table(
        ["category", "time [ms]", "% of makespan"],
        [[c, f"{v * 1e3:.4f}", f"{v / makespan:.1%}"]
         for c, v in report["by_category"].items()],
        title=f"critical path: {report['n_spans']} of "
              f"{report['n_trace_spans']} spans, "
              f"{report['duration'] * 1e3:.4f} ms "
              f"(= makespan), wait {report['wait'] * 1e3:.4f} ms") + "\n")
    out.write("\n" + render_table(
        ["lane", "time [ms]", "% of makespan"],
        [[l, f"{v * 1e3:.4f}", f"{v / makespan:.1%}"]
         for l, v in report["by_lane"].items()],
        title="critical path by lane") + "\n")
    steps = report["path"]
    shown = steps if args.limit <= 0 else steps[:args.limit]
    rows = [[s["id"], s["category"], s["label"], s["lane"],
             f"{s['start'] * 1e3:.4f}", f"{s['duration'] * 1e3:.4f}",
             f"{s['wait_before'] * 1e3:.4f}"] for s in shown]
    title = "path steps" if len(shown) == len(steps) else \
        f"path steps (first {len(shown)} of {len(steps)})"
    out.write("\n" + render_table(
        ["id", "category", "label", "lane", "start [ms]", "dur [ms]",
         "wait [ms]"], rows, title=title) + "\n")
    if args.gantt:
        out.write("\n" + render_gantt(res.trace,
                                      critical=graph.critical_path(),
                                      slack=graph.slack()) + "\n")
    _finish(args, out, res)
    return 0


def _parse_scales(pairs, error) -> dict[str, float]:
    scale: dict[str, float] = {}
    for item in pairs:
        cat, sep, k = item.partition("=")
        if not sep:
            error(f"--scale expects CAT=K, got {item!r}")
        try:
            scale[cat] = float(k)
        except ValueError:
            error(f"--scale factor must be a number, got {k!r}")
    return scale


def _cmd_whatif(args, out) -> int:
    from repro.obs import sensitivity_report, whatif_report
    scale = _parse_scales(args.scale, args.parser.error)
    res = _run(args, out)
    graph = res.causal_graph()
    report = (whatif_report(graph, scale) if scale
              else sensitivity_report(graph))
    if args.json:
        out.write(canonical_json(report) + "\n")
    elif scale:
        out.write(res.summary() + "\n\n")
        # One combined prediction row labelled with every scaled category.
        label = " ".join(f"{c}x{k:g}" for c, k in report["scale"].items())
        rows = [[label, f"{report['measured_makespan'] * 1e3:.4f}",
                 f"{report['predicted_makespan'] * 1e3:.4f}",
                 f"{report['delta'] * 1e3:+.4f}",
                 f"{report['speedup']:.3f}"]]
        out.write(render_table(
            ["scenario", "measured [ms]", "predicted [ms]", "delta [ms]",
             "speedup"], rows, title="what-if prediction") + "\n")
    else:
        out.write(res.summary() + "\n\n")
        rows = [[r["category"], f"{r['factor']:g}",
                 f"{r['predicted_makespan'] * 1e3:.4f}",
                 f"{r['delta'] * 1e3:+.4f}", f"{r['speedup']:.3f}"]
                for r in report["rows"]]
        out.write(render_table(
            ["category", "factor", "predicted [ms]", "delta [ms]",
             "speedup"], rows,
            title=f"what-if sensitivity (measured "
                  f"{report['measured_makespan'] * 1e3:.4f} ms)") + "\n")
    _finish(args, out, res)
    return 0


def _sample_timeline(steps, t_end: float, width: int) -> list[float]:
    """Resample a ledger step series ``[(t, balance)]`` into ``width``
    buckets, keeping each bucket's *maximum* balance so narrow occupancy
    spikes (and therefore the watermark) survive the downsampling."""
    if t_end <= 0.0 or width <= 0:
        return [float(b) for _, b in steps] or [0.0]
    vals: list[float] = []
    cur = 0.0
    j = 0
    for i in range(width):
        hi = t_end * (i + 1) / width
        peak = cur
        while j < len(steps) and steps[j][0] <= hi:
            cur = float(steps[j][1])
            peak = max(peak, cur)
            j += 1
        vals.append(peak)
    return vals


def _cmd_mem(args, out) -> int:
    from repro.reporting import (format_bytes, sparkline,
                                 write_memory_dashboard)
    res = _run(args, out)
    ledger = res.memory_ledger
    doc = ledger.to_dict()
    if args.json:
        out.write(canonical_json(doc) + "\n")
    else:
        out.write(res.summary() + "\n\n")
        rows = []
        for pool, p in doc["pools"].items():
            cap, head = p["capacity_bytes"], p["headroom_bytes"]
            rows.append([
                pool, format_bytes(p["peak_bytes"]),
                format_bytes(cap) if cap is not None else "-",
                format_bytes(head) if head is not None else "-",
                p["n_allocs"], p["n_frees"],
                "ok" if p["balance_bytes"] == 0
                else f"LEAK {p['balance_bytes']} B"])
        verdict = "balanced" if doc["balanced"] else "LEAKED"
        out.write(render_table(
            ["pool", "peak", "capacity", "headroom", "allocs", "frees",
             "verdict"], rows,
            title=f"memory occupancy ({ledger.n_allocs} allocs, "
                  f"{ledger.n_frees} frees, {verdict})") + "\n")
        out.write("\noccupancy timelines (0 .. makespan, bucket maxima):\n")
        for pool in ledger.pools():
            vals = _sample_timeline(ledger.timeline(pool), res.elapsed,
                                    args.width)
            out.write(f"  {pool:<8} {sparkline(vals)}  "
                      f"peak {format_bytes(ledger.peaks.get(pool, 0))}\n")
        if args.entries:
            rows = [[f"{e['t']:.6f}", e["op"], e["pool"], e["name"],
                     format_bytes(e["nbytes"]), format_bytes(e["balance"])]
                    for e in doc["entries"]]
            out.write("\n" + render_table(
                ["t [s]", "op", "pool", "name", "size", "balance"], rows,
                title=f"ledger entries ({len(rows)})") + "\n")
    _write_html(args.html, "memory dashboard",
                lambda path: write_memory_dashboard(
                    doc, path, title=f"{res.approach} on "
                                     f"{res.platform_name}"), out)
    _finish(args, out, res)
    return 0


def _cmd_flows(args, out) -> int:
    from repro.obs.flows import (attribute_contention, concurrency_series,
                                 link_peaks, link_timelines)
    from repro.reporting import (format_bytes, sparkline,
                                 write_flows_dashboard)
    res = _run(args, out)
    ledger = res.flow_ledger
    doc = ledger.to_dict()
    if args.json:
        out.write(canonical_json(doc) + "\n")
    else:
        out.write(res.summary() + "\n\n")
        peaks = link_peaks(doc)
        rows = []
        for name in sorted(peaks):
            d = peaks[name]
            cap = d["capacity_bytes_per_s"]
            rows.append([
                name,
                format_bytes(cap) + "/s" if cap is not None else "-",
                format_bytes(d["peak_bytes_per_s"]) + "/s",
                f"{d['peak_utilization']:.0%}"])
        contention = attribute_contention(doc)
        out.write(render_table(
            ["link", "capacity", "peak rate", "peak util"], rows,
            title=f"interconnect ({ledger.n_flows} flows, "
                  f"{format_bytes(ledger.bytes_moved)} moved, "
                  f"{contention['total_contention_s']:.6f} s contention)")
            + "\n")
        out.write("\nlink bandwidth timelines (0 .. makespan, "
                  "bucket maxima):\n")
        for name, pts in link_timelines(doc).items():
            vals = _sample_timeline(pts, res.elapsed, args.width)
            out.write(f"  {name:<10} {sparkline(vals)}  peak "
                      f"{format_bytes(peaks[name]['peak_bytes_per_s'])}"
                      "/s\n")
        conc = concurrency_series(doc)
        vals = _sample_timeline(conc, res.elapsed, args.width)
        out.write(f"  {'in flight':<10} {sparkline(vals)}  "
                  f"peak {max((c for _, c in conc), default=0)} flows\n")
        contended = sorted(contention["flows"],
                           key=lambda f: (-f["slowdown_s"], f["id"]))
        rows = []
        for f in contended[:args.top]:
            charges = sorted(((k, v) for k, v in f["parts"].items()
                              if k != "isolation" and v > 0.0),
                             key=lambda kv: -kv[1])
            top = ", ".join(f"{k} {v:.6f}s" for k, v in charges[:3])
            rows.append([f["id"], f["label"],
                         "-" if f["span"] is None else f["span"],
                         f"{f['duration_s']:.6f}",
                         f"{f['isolation_s']:.6f}",
                         f"{f['slowdown_s']:.6f}", top or "-"])
        out.write("\n" + render_table(
            ["id", "flow", "span", "duration [s]", "isolation [s]",
             "slowdown [s]", "charged to"], rows,
            title=f"top contended flows ({len(rows)} of "
                  f"{contention['n_flows']})") + "\n")
    _write_html(args.html, "flows dashboard",
                lambda path: write_flows_dashboard(
                    doc, path, title=f"{res.approach} on "
                                     f"{res.platform_name}"), out)
    _finish(args, out, res)
    return 0


def _cmd_plan_mem(args, out) -> int:
    from repro.errors import PlanError
    from repro.obs import plan_memory
    from repro.obs.memory import MEMPLAN_SCHEMA
    from repro.reporting import format_bytes
    try:
        memplan = plan_memory(
            get_platform(args.platform), int(args.n), n_gpus=args.gpus,
            approach=args.approach, n_streams=args.streams,
            batch_size=int(args.batch_size) if args.batch_size else None,
            pinned_elements=int(args.pinned))
    except PlanError as exc:
        if args.json:
            out.write(canonical_json(
                {"schema": MEMPLAN_SCHEMA, "ok": False,
                 "rejected": str(exc)}) + "\n")
        else:
            out.write(f"repro plan-mem: REJECTED: {exc}\n")
        return 2
    conf = None
    if args.verify and memplan["ok"]:
        from repro.obs import measured_peaks, memory_conformance
        conf = memory_conformance(memplan, measured_peaks(_run(args, out)),
                                  tolerance=args.tolerance)
    if args.json:
        doc = dict(memplan)
        if conf is not None:
            doc["conformance"] = conf
        out.write(canonical_json(doc) + "\n")
        return 0 if memplan["ok"] and (conf is None or conf["ok"]) else 1
    pt = memplan["point"]
    workers = ", ".join(f"gpu{g[3:]}x{c}" if g.startswith("gpu") else g
                        for g, c in memplan["workers"].items())
    out.write(f"plan: {pt['approach']} on {pt['platform']}, "
              f"n={pt['n']:.3g}, batch={pt['batch_size']:.3g}, "
              f"streams={pt['n_streams']}, "
              f"pinned={pt['pinned_elements']:.3g}\n"
              f"workers: {workers or 'none'} -- "
              f"{format_bytes(memplan['per_worker']['device_bytes'])} "
              f"device + "
              f"{format_bytes(memplan['per_worker']['pinned_bytes'])} "
              f"pinned each\n\n")
    rows = [[pool, format_bytes(p["predicted_bytes"]),
             format_bytes(p["capacity_bytes"]),
             format_bytes(p["headroom_bytes"]),
             "ok" if p["ok"] else "OVERSUBSCRIBED"]
            for pool, p in memplan["pools"].items()]
    out.write(render_table(
        ["pool", "predicted peak", "capacity", "headroom", "verdict"],
        rows, title="predicted peak occupancy") + "\n")
    for v in memplan["violations"]:
        out.write(f"  VIOLATION: {v}\n")
    if not memplan["ok"]:
        out.write("plan-mem: configuration does NOT fit\n")
        return 1
    if conf is None:
        out.write("plan-mem: configuration fits\n")
        return 0
    rows = [[pool, format_bytes(p["predicted_bytes"]),
             format_bytes(p["measured_bytes"]),
             f"{p['residual_bytes']:+d} B",
             f"{p['rel']:+.2%}" if p["rel"] is not None else "-",
             "ok" if p["ok"] else "MISMATCH"]
            for pool, p in conf["pools"].items()]
    out.write("\n" + render_table(
        ["pool", "predicted", "measured", "residual", "rel", "verdict"],
        rows, title=f"predicted vs measured peaks "
                    f"(tolerance {conf['tolerance']:g})") + "\n")
    if not conf["ok"]:
        out.write("plan-mem: measured peaks deviate from the prediction\n")
        return 1
    out.write("plan-mem: measured peaks match the prediction\n")
    return 0


def _cmd_chaos(args, out) -> int:
    if (args.fault_seed is None) == (args.plan is None):
        args.parser.error("pass exactly one of --fault-seed or --plan")
    from repro.errors import ReproError
    from repro.obs import entry_from_result
    from repro.sim.faults import FaultPlan
    plan = (FaultPlan.load(args.plan) if args.plan is not None
            else FaultPlan.random(args.fault_seed, n_gpus=args.gpus))
    if args.plan_out:
        with _writes(args.plan_out, "fault plan"):
            plan.save(args.plan_out)
        if not args.json:     # keep --json stdout pure JSON
            out.write(f"wrote fault plan to {args.plan_out}\n")
    sinks = _event_log(args.events)
    verdict = {"schema": "repro.chaos/v1", "plan": plan.to_dict(),
               "approach": args.approach, "platform": args.platform,
               "n": args.functional}
    try:
        res = _run(args, out, sinks=sinks, faults=plan)
    except ReproError as exc:
        verdict.update(survived=False, error=type(exc).__name__,
                       message=str(exc))
        if args.json:
            out.write(canonical_json(verdict) + "\n")
        else:
            out.write(f"chaos: run FAILED with {type(exc).__name__}: "
                      f"{exc}\n")
        return 3
    verdict.update(survived=True, elapsed_s=res.elapsed,
                   faults=res.meta.get("faults", {"fired": 0}),
                   degrades=len(res.meta.get("degrades", [])))
    if args.json:
        out.write(canonical_json(verdict) + "\n")
    else:
        fired = verdict["faults"].get("fired", 0)
        out.write(f"chaos: survived -- output verified sorted "
                  f"({fired} fault(s) fired, "
                  f"{verdict['degrades']} degradation(s), "
                  f"elapsed {res.elapsed:.6f} s)\n")
    gate = {"gate": "chaos", "ok": True, "failures": []}
    _finish(args, out, res, lambda: [entry_from_result(
        res, source="chaos",
        label=f"chaos {args.approach} n={args.functional}",
        verdicts=[gate])], events_note=not args.json)
    return 0


# ---------------------------------------------------------------------------
# Document commands: reports, ledgers, logs and archives
# ---------------------------------------------------------------------------

def _cmd_diff(args, out) -> int:
    from repro.errors import ReportError
    from repro.obs import diff_reports, load_report, render_diff
    try:
        a = load_report(args.report_a)
        b = load_report(args.report_b)
    except ReportError as exc:
        out.write(f"repro diff: {exc}\n")
        return 2
    diff = diff_reports(a, b, tolerance=args.tolerance)
    if args.json:
        out.write(canonical_json(diff) + "\n")
    else:
        out.write(render_diff(diff, min_rel=args.min_rel) + "\n")
    if args.fail_on_regression and (diff["regression"]
                                    or diff["structural_change"]):
        return 1
    return 0


def _cmd_sweep(args, out) -> int:
    from repro.obs import entry_from_ledger
    from repro.obs.sweep import run_sweep, sweep_points, write_ledger
    points = sweep_points(args.grid)
    model_n = (int(args.model_n) if args.model_n is not None
               else GRIDS[args.grid][1])
    progress = None if args.quiet else \
        (lambda line: out.write(line + "\n"))
    records = run_sweep(points, model_n=model_n, progress=progress)
    with _writes(args.ledger, "sweep ledger"):
        write_ledger(records, args.ledger)
    out.write(f"wrote {len(records)} ledger lines to {args.ledger}\n")
    _finish(args, out, entries=lambda: [entry_from_ledger(r)
                                        for r in records])
    return 0


def _cmd_conformance(args, out) -> int:
    from repro.errors import LedgerError
    from repro.obs import conformance_summary, load_ledger
    from repro.reporting import write_dashboard
    try:
        records = load_ledger(args.ledger)
    except LedgerError as exc:
        out.write(f"repro conformance: cannot load ledger: {exc}\n")
        return 2
    summary = conformance_summary(records, z_threshold=args.z_threshold,
                                  rel_tolerance=args.tolerance)
    if args.json:
        out.write(canonical_json(summary) + "\n")
    else:
        rows = []
        for key, g in summary["groups"].items():
            paper = (f"{g['paper_slope'] * 1e9:.3f}"
                     if g["paper_slope"] else "-")
            rows.append([key, g["n_runs"],
                         f"{g['fitted_slope'] * 1e9:.3f}",
                         f"{g['fitted_intercept'] * 1e3:.2f}",
                         f"{g['r2']:.5f}",
                         f"{g['model_slope'] * 1e9:.3f}", paper,
                         len(g["anomalies"])])
        out.write(render_table(
            ["group", "runs", "fit [ns/el]", "icpt [ms]", "R^2",
             "model [ns/el]", "paper [ns/el]", "anomalies"], rows,
            title=f"conformance: {summary['n_runs']} runs, "
                  f"{summary['n_groups']} groups, mean model/measured "
                  f"{summary['mean_slowdown']:.3f}") + "\n")
        for a in summary["anomalies"]:
            out.write(f"  ANOMALY {a['run_id']} ({a['group']}): measured "
                      f"{a['measured_s']:.4f} s vs fit "
                      f"{a['expected_s']:.4f} s "
                      f"({a['deviation_s']:+.4f} s, z={a['z']:+.2f}, "
                      f"{'/'.join(a['flags'])})\n")
    _write_html(args.html, "dashboard",
                lambda path: write_dashboard(records, summary, path), out)
    if args.fail_on_anomaly and summary["n_anomalies"] > 0:
        out.write(f"FAIL: {summary['n_anomalies']} anomalous run(s)\n")
        return 1
    return 0


def _cmd_watch(args, out) -> int:
    from repro.errors import EventLogError
    from repro.obs import LiveAggregator, read_events, validate_events
    from repro.reporting import render_plain_line, render_snapshot
    if not args.interval > 0:
        out.write(f"repro watch: --interval must be > 0, got "
                  f"{args.interval:g}\n")
        return 2
    try:
        _, events = read_events(args.events)
        validate_events(events)
    except EventLogError as exc:
        out.write(f"repro watch: invalid event log: {exc}\n")
        return 2
    agg = LiveAggregator()
    next_t = args.interval
    for ev in events:
        agg.emit(ev)
        if not args.json and ev.t >= next_t:
            out.write(render_plain_line(agg.snapshot()) + "\n")
            while next_t <= ev.t:
                next_t += args.interval
    if args.json:
        out.write(canonical_json(agg.snapshot()) + "\n")
    else:
        out.write(render_snapshot(agg.snapshot()) + "\n")
    return 0


def _load_archive_or_exit(path, out, prog: str):
    from repro.errors import ArchiveError
    from repro.obs import load_archive
    try:
        return load_archive(path)
    except ArchiveError as exc:
        out.write(f"{prog}: invalid archive: {exc}\n")
        return None


def _pick_entry(entries, token: str, out):
    """The unique entry whose id starts with ``token`` (or None + a
    message listing the ambiguity)."""
    hits = [e for e in entries if e["entry"].startswith(token)]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        out.write(f"repro archive: no entry matches {token!r}\n")
    else:
        ids = ", ".join(e["entry"] for e in hits[:5])
        out.write(f"repro archive: {token!r} is ambiguous "
                  f"({len(hits)} entries: {ids}...)\n")
    return None


def _cmd_archive(args, out) -> int:
    from repro.errors import ArchiveError
    from repro.obs import compare_entries, render_diff, validate_archive
    entries = _load_archive_or_exit(args.archive, out, "repro archive")
    if entries is None:
        return 2
    if args.diff:
        a = _pick_entry(entries, args.diff[0], out)
        b = _pick_entry(entries, args.diff[1], out)
        if a is None or b is None:
            return 2
        try:
            diff = compare_entries(a, b, tolerance=args.tolerance)
        except ArchiveError as exc:
            out.write(f"repro archive: {exc}\n")
            return 2
        if args.json:
            out.write(canonical_json(diff) + "\n")
        else:
            out.write(render_diff(diff, min_rel=args.min_rel) + "\n")
        return 0
    try:
        summary = validate_archive(args.archive)
    except ArchiveError as exc:
        out.write(f"repro archive: INVALID: {exc}\n")
        return 1
    if args.json:
        doc = dict(summary)
        if args.list:
            doc["entries"] = [
                {"entry": e["entry"], "fingerprint": e["fingerprint"],
                 "source": e["source"], "label": e["label"],
                 "metrics": e["metrics"]} for e in entries]
        out.write(canonical_json(doc) + "\n")
        return 0
    srcs = ", ".join(f"{s} x{c}" for s, c in summary["sources"].items())
    out.write(f"archive OK: {summary['n_entries']} entries, "
              f"{summary['n_fingerprints']} workload fingerprint(s) "
              f"[{srcs}]\n")
    if args.list:
        rows = []
        for e in entries:
            mk = e["metrics"].get("makespan_s")
            rows.append([e["entry"], e["fingerprint"][:8], e["source"],
                         e["label"],
                         f"{mk:.6f}" if mk is not None else "-",
                         len(e["verdicts"])])
        out.write(render_table(
            ["entry", "fingerprint", "source", "label", "makespan [s]",
             "verdicts"], rows, title="archived runs (append order)")
            + "\n")
    return 0


def _cmd_trends(args, out) -> int:
    from repro.obs import trend_summary
    from repro.reporting import sparkline, write_trend_dashboard
    entries = _load_archive_or_exit(args.archive, out, "repro trends")
    if entries is None:
        return 2
    fp = args.fingerprint
    if fp is not None:
        full = sorted({e["fingerprint"] for e in entries
                       if e["fingerprint"].startswith(fp)})
        if len(full) != 1:
            out.write(f"repro trends: fingerprint {fp!r} matches "
                      f"{len(full)} workload(s)\n")
            return 2
        fp = full[0]
    trends = trend_summary(entries, args.metric or None,
                           alpha=args.ewma, k=args.k,
                           min_rel=args.min_rel, fingerprint=fp)
    if args.json:
        out.write(canonical_json(trends) + "\n")
    else:
        out.write(f"trends: {trends['n_fingerprints']} workload(s), "
                  f"{trends['n_series']} series, "
                  f"{trends['n_changepoints']} changepoint(s), "
                  f"{trends['n_proposals']} re-baseline proposal(s)\n")
        for fprint, blk in trends["fingerprints"].items():
            out.write(f"\n{blk['label'] or fprint}  "
                      f"[{fprint[:8]}] -- {blk['n_entries']} run(s)\n")
            for metric, tr in blk["metrics"].items():
                marks = [c["index"] for c in tr["changepoints"]]
                spark = sparkline(tr["values"], marks)
                out.write(f"  {metric:<22} {spark}  "
                          f"median {tr['median']:.6g}, "
                          f"last {tr['last']:.6g}\n")
                for c in tr["changepoints"]:
                    out.write(f"    changepoint at run {c['index'] + 1}: "
                              f"{c['before']:.6g} -> {c['after']:.6g} "
                              f"({c['ratio']:.2f}x, "
                              f"score {c['score']:.1f})\n")
                for i in tr["anomalies"]:
                    out.write(f"    anomaly at run {i + 1}: "
                              f"{tr['values'][i]:.6g}\n")
                if tr["ratchet"]:
                    out.write(f"    RATCHET: "
                              f"{tr['ratchet']['message']}\n")
    _write_html(args.html, "trend dashboard",
                lambda path: write_trend_dashboard(trends, path), out)
    return 0


# ---------------------------------------------------------------------------
# repro serve
# ---------------------------------------------------------------------------

#: Default ``repro serve`` tenant specs (see ``_parse_tenant``): a
#: latency-sensitive gold tenant with an SLO, a mid-priority silver
#: tenant, and a low-priority bulk tenant with bigger jobs.
_SERVE_DEMO_TENANTS = ("gold:2:2:40:3:200000:0.5",
                       "silver:1:1:30:3:200000",
                       "batch:0:0.5:20:3:400000")


def _parse_tenant(spec: str):
    """``name:priority:share:rate_hz:n_jobs:n_elements[:slo_s]`` ->
    :class:`~repro.service.Tenant` (ValueError on a malformed spec)."""
    from repro.service import Tenant
    parts = spec.split(":")
    if not 6 <= len(parts) <= 7:
        raise ValueError(
            f"tenant spec {spec!r}: expected name:priority:share:"
            "rate_hz:n_jobs:n_elements[:slo_s]")
    name = parts[0]
    if not name:
        raise ValueError(f"tenant spec {spec!r}: empty name")
    return Tenant(name=name, priority=int(parts[1]),
                  share=float(parts[2]), rate_hz=float(parts[3]),
                  n_jobs=int(parts[4]), n_elements=int(float(parts[5])),
                  slo_s=float(parts[6]) if len(parts) == 7 else None)


def _cmd_serve(args, out) -> int:
    from repro.errors import SimulationError, ValidationError
    from repro.reporting import format_bytes, write_service_dashboard
    from repro.service import ServiceConfig, archive_entry, run_service
    try:
        tenants = tuple(_parse_tenant(s) for s in
                        (args.tenant or _SERVE_DEMO_TENANTS))
    except (ValueError, ValidationError) as exc:
        args.parser.error(str(exc))
    sinks = _event_log(args.events)
    try:
        cfg = ServiceConfig(allocator=args.allocator, seed=args.seed,
                            functional=not args.timing,
                            gpus_per_job=args.gpus_per_job,
                            max_concurrent=args.max_concurrent,
                            batch_size=int(args.batch_size),
                            n_streams=args.streams,
                            pinned_elements=int(args.pinned),
                            controller=not args.no_controller,
                            epoch_s=args.epoch, reclaim=args.reclaim)
        res = run_service(tenants, cfg,
                          platform=get_platform(args.platform),
                          sinks=sinks)
    except (SimulationError, ValidationError) as exc:
        out.write(f"repro serve: {exc}\n")
        return 2
    verdict = res.verdict
    if args.json:
        out.write(canonical_json(verdict) + "\n")
    else:
        out.write(f"{verdict['allocator']} on {verdict['platform']}: "
                  f"{verdict['n_jobs']} jobs from "
                  f"{verdict['n_tenants']} tenants in "
                  f"{verdict['elapsed_s']:.4f} s simulated\n\n")
        rows = []
        for name, t in verdict["tenants"].items():
            hit = t["slo_hit_rate"]
            rows.append([
                name, str(t["priority"]), f"{t['share']:g}",
                str(t["n_jobs"]),
                f"{t['p50_latency_s']:.4f}", f"{t['p99_latency_s']:.4f}",
                f"{t['mean_queued_s']:.4f}",
                "-" if hit is None else f"{hit:.0%} of {t['slo_jobs']}",
                format_bytes(t["bytes_moved"])])
        out.write(render_table(
            ["tenant", "prio", "share", "jobs", "p50 [s]", "p99 [s]",
             "queued [s]", "SLO hits", "moved"], rows,
            title="per-tenant QoS") + "\n")
        jain = verdict["fairness"]["jain_latency_index"]
        out.write(f"\nJain fairness index (per-element latency): "
                  f"{jain:.4f}\n")
        slo = verdict["slo"]
        if slo["jobs_with_slo"]:
            out.write(f"SLO: {slo['hits']}/{slo['jobs_with_slo']} jobs "
                      f"met their deadline "
                      f"({slo['hit_rate']:.0%})\n")
        ctl = verdict["controller"]
        if ctl is not None:
            out.write(f"controller: {ctl['n_epochs']} epochs, "
                      f"{ctl['epochs_reclaiming']} reclaiming, mean "
                      f"reclaimed fraction "
                      f"{ctl['mean_reclaimed_fraction']:.0%}\n")
    _write_html(args.html, "service dashboard",
                lambda path: write_service_dashboard(
                    verdict, path,
                    title=f"{verdict['allocator']} on "
                          f"{verdict['platform']}, seed "
                          f"{verdict['seed']}"),
                out)
    _finish(args, out, entries=lambda: [archive_entry(verdict,
                                                      label=args.label)])
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
