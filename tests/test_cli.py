"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_timing_run():
    code, text = run_cli("--n", "1e9", "--approach", "pipedata",
                         "--batch-size", "2.5e8")
    assert code == 0
    assert "pipedata on PLATFORM1" in text
    assert "n_b=4" in text


def test_functional_run_validates():
    code, text = run_cli("--functional", "50000", "--batch-size",
                         "20000", "--approach", "pipemerge",
                         "--pinned", "5000")
    assert code == 0
    assert "validated" in text


def test_gantt_flag():
    code, text = run_cli("--functional", "30000", "--batch-size",
                         "10000", "--pinned", "3000", "--gantt")
    assert code == 0
    assert "s/column" in text


def test_compare_mode():
    code, text = run_cli("--n", "1e9", "--batch-size", "2.5e8",
                         "--compare", "--memcpy-threads", "8")
    assert code == 0
    assert "cpu reference" in text
    assert "pipemerge+parmemcpy" in text
    assert "speedup" in text


def test_platform2_multi_gpu():
    code, text = run_cli("--platform", "platform2", "--gpus", "2",
                         "--n", "1.4e9", "--batch-size", "3.5e8")
    assert code == 0
    assert "PLATFORM2" in text
    assert "n_gpu=2" in text


def test_gpumerge_approach():
    code, text = run_cli("--n", "8e8", "--approach", "gpumerge",
                         "--batch-size", "2e8")
    assert code == 0
    assert "gpumerge" in text


def test_requires_exactly_one_input_spec():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["--n", "1e6", "--functional", "100"])


def test_bad_approach_rejected():
    with pytest.raises(SystemExit):
        main(["--n", "1e6", "--approach", "bogosort"])


def test_parser_defaults_match_paper():
    args = build_parser().parse_args(["--n", "1e9"])
    assert args.streams == 2
    assert args.pinned == 1e6
    assert args.approach == "pipemerge"


def test_trace_json_export(tmp_path):
    import json
    path = tmp_path / "run.json"
    code, text = run_cli("--n", "4e8", "--batch-size", "2e8",
                         "--trace-json", str(path))
    assert code == 0
    assert "trace events" in text
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) > 10
    assert any(e["ph"] == "s" for e in doc["traceEvents"])


def test_critical_path_subcommand():
    code, text = run_cli("critical-path", "--n", "1e6", "--batch-size",
                         "2.5e5", "--pinned", "5e4", "--gantt")
    assert code == 0
    assert "critical path" in text
    assert "= makespan" in text
    assert "GPUSort" in text
    assert "*critical*" in text            # the Gantt overlay
    assert "crit=" in text and "slack=" in text


def test_critical_path_json(tmp_path):
    import json
    code, text = run_cli("critical-path", "--n", "1e6", "--batch-size",
                         "2.5e5", "--pinned", "5e4", "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["schema"] == "repro.critical_path/v1"
    assert doc["duration"] == doc["makespan"]


def test_whatif_scale():
    code, text = run_cli("whatif", "--n", "1e6", "--batch-size", "2.5e5",
                         "--pinned", "5e4", "--scale", "GPUSort=0.5")
    assert code == 0
    assert "what-if prediction" in text
    assert "GPUSortx0.5" in text


def test_whatif_sensitivity_default():
    code, text = run_cli("whatif", "--n", "1e6", "--batch-size", "2.5e5",
                         "--pinned", "5e4")
    assert code == 0
    assert "sensitivity" in text
    assert "PinnedAlloc" in text and "GPUSort" in text


def test_whatif_bad_scale_rejected():
    with pytest.raises(SystemExit):
        main(["whatif", "--n", "1e6", "--scale", "GPUSort"])
    with pytest.raises(SystemExit):
        main(["whatif", "--n", "1e6", "--scale", "GPUSort=fast"])


def test_report_and_diff_workflow(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("--n", "1e6", "--batch-size", "2.5e5", "--pinned", "5e4")
    assert run_cli(*args, "--report", str(a))[0] == 0
    assert run_cli(*args, "--report", str(b))[0] == 0
    code, text = run_cli("diff", str(a), str(b), "--fail-on-regression")
    assert code == 0
    assert "identical" in text


def test_diff_detects_regression(tmp_path):
    import json
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("--n", "1e6", "--batch-size", "2.5e5", "--pinned", "5e4")
    run_cli(*args, "--report", str(a))
    doc = json.loads(a.read_text())
    doc["makespan_s"] *= 1.5               # simulate a slower candidate
    b.write_text(json.dumps(doc))
    code, text = run_cli("diff", str(a), str(b), "--fail-on-regression")
    assert code == 1
    assert "REGRESSION" in text
    # Without the flag the diff still prints but exits 0.
    assert run_cli("diff", str(a), str(b))[0] == 0


# ---------------------------------------------------------------------------
# Machine-readable output (--json) and its conflicts
# ---------------------------------------------------------------------------

def test_run_json_output():
    import json
    code, text = run_cli("--n", "1e6", "--batch-size", "2.5e5",
                         "--pinned", "5e4", "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["approach"] == "pipemerge"
    assert doc["elapsed_s"] > 0


def test_compare_json_output():
    import json
    code, text = run_cli("--n", "4e8", "--batch-size", "1e8",
                         "--compare", "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["schema"] == "repro.compare/v1"
    assert doc["runs"][0]["approach"] == "cpu reference"
    assert len(doc["runs"]) >= 4


def test_metrics_json_output():
    import json
    code, text = run_cli("metrics", "--n", "1e6", "--batch-size",
                         "2.5e5", "--pinned", "5e4", "--json")
    assert code == 0
    doc = json.loads(text)
    assert "overlap_efficiency" in doc or "lanes" in doc


def test_json_is_canonical():
    """Both --json surfaces share one serializer: sorted keys, stable
    bytes run-to-run."""
    args = ("metrics", "--n", "1e6", "--batch-size", "2.5e5",
            "--pinned", "5e4", "--json")
    assert run_cli(*args)[1] == run_cli(*args)[1]


@pytest.mark.parametrize("argv", [
    ("--n", "1e6", "--json", "--report", "r.json"),
    ("metrics", "--n", "1e6", "--json", "--report", "r.json"),
    ("critical-path", "--n", "1e6", "--json", "--report", "r.json"),
    ("whatif", "--n", "1e6", "--json", "--report", "r.json"),
    ("mem", "--n", "1e6", "--json", "--report", "r.json"),
    ("flows", "--n", "1e6", "--json", "--report", "r.json"),
])
def test_json_and_report_conflict(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code != 0


# ---------------------------------------------------------------------------
# Error paths exit non-zero with a one-line message
# ---------------------------------------------------------------------------

def test_diff_missing_report_file():
    code, text = run_cli("diff", "/nonexistent/a.json",
                         "/nonexistent/b.json")
    assert code != 0
    assert len(text.strip().splitlines()) == 1
    assert "cannot read report" in text


def test_diff_malformed_report_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, text = run_cli("diff", str(bad), str(bad))
    assert code != 0
    assert len(text.strip().splitlines()) == 1
    assert "not valid JSON" in text


def test_conformance_missing_ledger():
    code, text = run_cli("conformance", "--ledger", "/nonexistent.jsonl")
    assert code != 0
    assert len(text.strip().splitlines()) == 1
    assert "cannot load ledger" in text


@pytest.mark.parametrize("argv", [
    ("watch", "{bad}"), ("diff", "{bad}", "{bad}"),
    ("conformance", "--ledger", "{bad}"), ("archive", "{bad}"),
    ("trends", "{bad}"), ("--n", "1e6", "--faults", "{bad}")])
def test_non_utf8_document_exits_2_with_one_line(tmp_path, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff")
    code, text = run_cli(*(a.format(bad=bad) for a in argv))
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    assert "not UTF-8" in text


_KEYLESS_ARCHIVE = '{"schema":"repro.archive/v1"}\n'
_INT_ENTRY_ARCHIVE = ('{"schema":"repro.archive/v1","entry":5,"fingerprint":7,'
                      '"source":"s","label":"l","point":{},"metrics":{},'
                      '"lanes":{},"report":null,"residuals":null,'
                      '"verdicts":[],"profile":null}\n')
_RUN_START = ('{"kind":"run.start","t":0,"seq":0,'
              '"data":{"n_batches":"4"}}\n')
_WATERMARK = ('{"kind":"mem.watermark","t":0,"seq":0,"data":{"pool":"gpu0",'
              '"peak_bytes":8,"capacity_bytes":"16"}}\n')
_SORTED = '{"kind":"phase","t":0.5,"seq":1,"data":{"name":"run.sorted"}}\n'
_EVENTS = '{"schema":"repro.events/v1"}\n'


@pytest.mark.parametrize("argv, text", [
    (("trends", "{bad}"), _KEYLESS_ARCHIVE),
    (("archive", "{bad}", "--diff", "x", "y"), _KEYLESS_ARCHIVE),
    (("watch", "{bad}"), _EVENTS + _RUN_START + _SORTED),
    (("watch", "{bad}"), _EVENTS + _WATERMARK),
    (("trends", "{bad}"), _INT_ENTRY_ARCHIVE),
    (("archive", "{bad}", "--diff", "x", "y"), _INT_ENTRY_ARCHIVE)])
def test_wrong_keys_or_types_exit_2_with_one_line(tmp_path, argv, text):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    code, out = run_cli(*(a.format(bad=bad) for a in argv))
    assert code == 2
    assert len(out.strip().splitlines()) == 1
    said = [m for m in ("missing keys", "must be Real", "entry must be str")
            if m in out]
    assert len(said) == 1, out


def test_watch_rejects_a_string_time(tmp_path):
    log = tmp_path / "t.events.jsonl"
    log.write_text('{"schema":"repro.events/v1"}\n'
                   '{"kind":"phase","t":"0.5","seq":0,'
                   '"data":{"name":"a"}}\n')
    code, text = run_cli("watch", str(log))
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    assert "invalid event log" in text


def test_sweep_unknown_grid_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--grid", "gigantic"])
    assert exc.value.code != 0


# ---------------------------------------------------------------------------
# Sweep -> conformance -> dashboard end to end
# ---------------------------------------------------------------------------

def test_sweep_conformance_dashboard_workflow(tmp_path):
    import json
    ledger = tmp_path / "ledger.jsonl"
    html = tmp_path / "dash.html"
    code, text = run_cli("sweep", "--grid", "tiny",
                         "--ledger", str(ledger))
    assert code == 0
    assert "wrote 2 ledger lines" in text
    lines = [json.loads(l) for l in ledger.read_text().splitlines()]
    assert all(l["schema"] == "repro.sweep/v1" for l in lines)

    code, text = run_cli("conformance", "--ledger", str(ledger),
                         "--html", str(html), "--fail-on-anomaly")
    assert code == 0
    assert "conformance:" in text
    assert html.read_text().startswith("<!DOCTYPE html>")

    code, text = run_cli("conformance", "--ledger", str(ledger),
                         "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["schema"] == "repro.conformance_summary/v1"
    assert doc["n_runs"] == 2


def test_sweep_ledger_byte_stable(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("sweep", "--grid", "tiny", "--ledger", str(a),
                   "--quiet")[0] == 0
    assert run_cli("sweep", "--grid", "tiny", "--ledger", str(b),
                   "--quiet")[0] == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# Live telemetry: --live / --events / watch
# ---------------------------------------------------------------------------

def test_run_with_events_log(tmp_path):
    from repro.obs import validate_event_log
    log = tmp_path / "run.events.jsonl"
    code, text = run_cli("--n", "1e6", "--batch-size", "2.5e5",
                         "--pinned", "5e4", "--events", str(log))
    assert code == 0
    assert "wrote event log" in text
    summary = validate_event_log(log)
    assert summary["counts"]["run.start"] == 1
    assert summary["counts"]["run.end"] == 1
    assert summary["counts"]["span"] > 0


def test_run_live_non_tty():
    code, text = run_cli("--n", "1e9", "--approach", "pipedata",
                         "--batch-size", "2.5e8", "--live")
    assert code == 0
    assert any(ln.startswith("live ") for ln in text.splitlines())
    assert "pipedata on PLATFORM1" in text   # the final frame
    assert "batches 4/4" in text


def test_run_deadline_warning(tmp_path):
    from repro.obs import EV, read_events
    log = tmp_path / "run.events.jsonl"
    code, _ = run_cli("--n", "1e6", "--batch-size", "2.5e5",
                      "--pinned", "5e4", "--deadline", "1e-4",
                      "--events", str(log))
    assert code == 0
    _, events = read_events(log)
    assert any(e.kind == EV.WARNING and e.data["code"] == "deadline"
               for e in events)


def test_watch_subcommand(tmp_path):
    log = tmp_path / "run.events.jsonl"
    run_cli("--n", "1e9", "--approach", "pipedata",
            "--batch-size", "2.5e8", "--events", str(log))
    code, text = run_cli("watch", str(log))
    assert code == 0
    assert any(ln.startswith("live ") for ln in text.splitlines())
    assert "pipedata on PLATFORM1" in text
    assert "done in" in text


def test_watch_json_snapshot(tmp_path):
    import json
    log = tmp_path / "run.events.jsonl"
    run_cli("--n", "1e6", "--batch-size", "2.5e5", "--pinned", "5e4",
            "--events", str(log))
    code, text = run_cli("watch", str(log), "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["ended"] is True
    assert doc["progress"]["fraction"] == 1.0


@pytest.mark.parametrize("interval", ["0", "-1"])
def test_watch_rejects_a_non_positive_interval(tmp_path, interval):
    log = tmp_path / "run.events.jsonl"
    run_cli("--n", "1e6", "--batch-size", "2.5e5", "--events", str(log))
    code, text = run_cli("watch", str(log), "--interval", interval)
    assert code == 2
    assert text == f"repro watch: --interval must be > 0, got {interval}\n"


def test_watch_rejects_bad_log(tmp_path):
    code, text = run_cli("watch", str(tmp_path / "missing.jsonl"))
    assert code == 2
    assert "cannot read" in text
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema":"something/else"}\n')
    code, text = run_cli("watch", str(bad))
    assert code == 2
    assert "invalid event log" in text


# ---------------------------------------------------------------------------
# Run archive + trend observatory subcommands
# ---------------------------------------------------------------------------


def test_archive_flag_is_idempotent(tmp_path):
    arch = str(tmp_path / "runs.jsonl")
    argv = ("--n", "1e9", "--batch-size", "2.5e8", "--archive", arch)
    code, text = run_cli(*argv)
    assert code == 0
    assert f"archived 1 entry to {arch}" in text
    first = (tmp_path / "runs.jsonl").read_bytes()
    code, text = run_cli(*argv)
    assert code == 0
    assert "archived 0 entries" in text
    assert "(1 already archived)" in text
    assert (tmp_path / "runs.jsonl").read_bytes() == first
    assert (tmp_path / "runs.manifest.json").exists()


def test_archive_subcommand_validates_and_lists(tmp_path):
    arch = str(tmp_path / "runs.jsonl")
    run_cli("--n", "1e9", "--batch-size", "2.5e8", "--archive", arch)
    code, text = run_cli("archive", arch)
    assert code == 0
    assert "archive OK: 1 entries, 1 workload fingerprint(s)" in text
    code, text = run_cli("archive", arch, "--list")
    assert code == 0
    assert "archived runs (append order)" in text
    assert "pipemerge" in text
    code, text = run_cli("archive", arch, "--json")
    assert code == 0
    import json
    assert json.loads(text)["n_entries"] == 1


def test_archive_subcommand_flags_corruption(tmp_path):
    arch = tmp_path / "runs.jsonl"
    run_cli("--n", "1e9", "--batch-size", "2.5e8", "--archive",
            str(arch))
    arch.write_text(arch.read_text().replace('"makespan_s"', '"mk_s"'))
    code, text = run_cli("archive", str(arch))
    assert code == 1
    assert "INVALID" in text


def test_archive_diff_two_runs(tmp_path):
    arch = str(tmp_path / "runs.jsonl")
    run_cli("--n", "1e9", "--batch-size", "2.5e8", "--archive", arch)
    run_cli("--n", "2e9", "--batch-size", "2.5e8", "--archive", arch)
    from repro.obs import load_archive
    ids = [e["entry"] for e in load_archive(arch)]
    code, text = run_cli("archive", arch, "--diff", ids[0], ids[1])
    assert code == 0
    assert "makespan" in text
    code, text = run_cli("archive", arch, "--diff", ids[0], "zzzz")
    assert code == 2
    assert "no entry matches" in text


def test_trends_subcommand_reports_changepoint(tmp_path):
    from repro.obs import append_entries, make_entry
    arch = tmp_path / "runs.jsonl"
    step = [1.00, 1.02, 0.99, 1.01, 1.00, 1.40, 1.41, 1.39, 1.40, 1.42]
    append_entries(arch, [
        make_entry(source="run", label=f"r{i}",
                   point={"approach": "bline", "n": 1000},
                   metrics={"makespan_s": v})
        for i, v in enumerate(step)])
    code, text = run_cli("trends", str(arch))
    assert code == 0
    assert "1 workload(s), 1 series, 1 changepoint(s)" in text
    assert "changepoint at run 6: 1 -> 1.4 (1.40x" in text
    assert "RATCHET" in text
    assert "|" in text                            # sparkline marker
    html = tmp_path / "deep" / "trends.html"     # parent auto-created
    code, text = run_cli("trends", str(arch), "--html", str(html))
    assert code == 0
    assert html.exists()


def test_trends_missing_archive_exits_2(tmp_path):
    code, text = run_cli("trends", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "cannot read archive" in text


def test_unwritable_output_is_a_clean_error(tmp_path):
    """Writing through an existing file must raise a one-line
    SystemExit, not an OSError traceback (ENOTDIR works even as
    root, unlike permission bits)."""
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file")
    bad = str(blocker / "sub" / "out.jsonl")
    with pytest.raises(SystemExit) as exc:
        run_cli("--n", "1e9", "--batch-size", "2.5e8",
                "--archive", bad)
    msg = str(exc.value)
    assert msg.startswith("repro: cannot write archive to")
    assert "Traceback" not in msg

    with pytest.raises(SystemExit) as exc:
        run_cli("--n", "1e9", "--batch-size", "2.5e8",
                "--report", str(blocker / "r.json"))
    assert str(exc.value).startswith("repro: cannot write run report")


# ---------------------------------------------------------------------------
# Memory observatory: `repro mem` and `repro plan-mem`
# ---------------------------------------------------------------------------

def test_mem_occupancy_table_and_timeline():
    code, text = run_cli("mem", "--n", "1e6", "--approach", "pipedata",
                         "--batch-size", "2.5e5", "--pinned", "5e4")
    assert code == 0
    assert "memory occupancy (6 allocs, 6 frees, balanced)" in text
    assert "gpu0" in text and "pinned" in text
    assert "8.0 MB" in text        # gpu0 peak: 2 workers x 2 x 250k x 8
    assert "1.6 MB" in text        # pinned peak: 2 workers x 2 x 50k x 8
    assert "occupancy timelines" in text
    # one sparkline row per pool, peak annotated
    assert text.count("peak") >= 2


def test_mem_json_is_the_ledger_document():
    import json as _json
    code, text = run_cli("mem", "--n", "1e6", "--approach", "bline",
                         "--pinned", "5e4", "--json")
    assert code == 0
    doc = _json.loads(text)
    assert doc["schema"] == "repro.memory/v1"
    assert doc["balanced"] is True
    assert doc["pools"]["gpu0"]["peak_bytes"] == 16_000_000
    assert doc["pools"]["pinned"]["peak_bytes"] == 800_000
    assert doc["pools"]["gpu0"]["balance_bytes"] == 0
    assert len(doc["entries"]) == 6


def test_mem_entries_flag_lists_every_operation():
    code, text = run_cli("mem", "--functional", "50000", "--batch-size",
                         "20000", "--pinned", "5000", "--approach",
                         "bline", "--entries")
    assert code == 0
    assert "ledger entries (6)" in text
    assert "alloc" in text and "free" in text
    assert "stage_in.g0" in text


def test_mem_html_dashboard(tmp_path):
    path = tmp_path / "mem.html"
    code, text = run_cli("mem", "--n", "1e6", "--approach", "bline",
                         "--pinned", "5e4", "--html", str(path))
    assert code == 0
    assert f"wrote memory dashboard to {path}" in text
    html = path.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "Occupancy" in html


def test_plan_mem_fits():
    code, text = run_cli("plan-mem", "--n", "1e6", "--approach",
                         "pipedata", "--batch-size", "2.5e5",
                         "--pinned", "5e4")
    assert code == 0
    assert "workers: gpu0x2" in text
    assert "predicted peak occupancy" in text
    assert "plan-mem: configuration fits" in text


def test_plan_mem_verify_zero_residual():
    code, text = run_cli("plan-mem", "--n", "1e6", "--approach",
                         "pipedata", "--batch-size", "2.5e5",
                         "--pinned", "5e4", "--verify")
    assert code == 0
    assert "predicted vs measured peaks" in text
    assert "+0 B" in text
    assert "measured peaks match the prediction" in text


def test_plan_mem_rejects_infeasible_batch():
    code, text = run_cli("plan-mem", "--platform", "PLATFORM2", "--n",
                         "2e9", "--batch-size", "1e9", "--approach",
                         "bline")
    assert code == 2
    assert "REJECTED" in text
    assert "global memory" in text


def test_plan_mem_flags_pinned_oversubscription():
    code, text = run_cli("plan-mem", "--n", "5.5e9", "--batch-size",
                         "2.5e8", "--pinned", "2.5e8", "--approach",
                         "pipedata")
    assert code == 1
    assert "OVERSUBSCRIBED" in text
    assert "does NOT fit" in text


def test_plan_mem_json_document():
    import json as _json
    code, text = run_cli("plan-mem", "--n", "1e6", "--approach", "bline",
                         "--pinned", "5e4", "--json", "--verify")
    assert code == 0
    doc = _json.loads(text)
    assert doc["schema"] == "repro.memplan/v1"
    assert doc["ok"] is True
    assert doc["predicted"]["gpu0"] == 16_000_000
    assert doc["conformance"]["ok"] is True
    assert doc["conformance"]["schema"] == "repro.memory_conformance/v1"


def test_metrics_json_carries_engine_counters():
    import json as _json
    code, text = run_cli("metrics", "--n", "1e6", "--batch-size",
                         "2.5e5", "--pinned", "5e4", "--json")
    assert code == 0
    doc = _json.loads(text)
    assert doc["engine"]["processed_events"] > 0
    assert doc["engine"]["events_per_sim_s"] > 0
    assert doc["flows"]["n_flows"] > 0


def test_flows_tables_and_timelines():
    code, text = run_cli("flows", "--n", "1e6", "--approach", "pipedata",
                         "--batch-size", "2.5e5", "--pinned", "5e4")
    assert code == 0
    assert "interconnect (" in text and "flows" in text
    assert "host_bus" in text
    assert "pcie.htod" in text and "pcie.dtoh" in text
    assert "link bandwidth timelines" in text
    assert "in flight" in text
    assert "top contended flows" in text
    assert "charged to" in text


def test_flows_json_is_the_ledger_document():
    import json as _json
    code, text = run_cli("flows", "--n", "1e6", "--approach", "bline",
                         "--pinned", "5e4", "--json")
    assert code == 0
    doc = _json.loads(text)
    assert doc["schema"] == "repro.flows/v1"
    assert doc["n_flows"] == len(doc["flows"]) > 0
    assert set(doc["capacities"]) == {"host_bus", "pcie.htod",
                                      "pcie.dtoh"}


def test_flows_json_is_byte_stable():
    args = ("flows", "--n", "1e6", "--approach", "pipedata",
            "--batch-size", "2.5e5", "--pinned", "5e4", "--json")
    assert run_cli(*args)[1] == run_cli(*args)[1]


def test_flows_html_dashboard(tmp_path):
    path = tmp_path / "flows.html"
    code, text = run_cli("flows", "--n", "1e6", "--approach", "pipedata",
                         "--batch-size", "2.5e5", "--pinned", "5e4",
                         "--html", str(path))
    assert code == 0
    assert f"wrote flows dashboard to {path}" in text
    html = path.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "host_bus" in html


def test_flows_trace_carries_link_counter_tracks(tmp_path):
    import json as _json
    path = tmp_path / "flows.trace.json"
    code, _ = run_cli("flows", "--n", "1e6", "--approach", "pipedata",
                      "--batch-size", "2.5e5", "--pinned", "5e4",
                      "--trace-json", str(path))
    assert code == 0
    events = _json.loads(path.read_text())["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "C"}
    assert "link.host_bus.bw_bytes_per_s" in names
    assert "link.pcie.htod.bw_bytes_per_s" in names


# ---------------------------------------------------------------------------
# The command tree: one registration and one run path per command
# ---------------------------------------------------------------------------

COMMANDS = ("metrics", "critical-path", "whatif", "diff", "sweep",
            "conformance", "watch", "chaos", "archive", "trends", "mem",
            "plan-mem", "flows", "serve")


@pytest.mark.parametrize("cmd", COMMANDS)
def test_every_command_is_registered(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: repro-hetsort {cmd} ")


def test_root_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(f"    {cmd} " in text for cmd in COMMANDS)


def test_run_options_must_follow_the_command_name():
    with pytest.raises(SystemExit) as exc:
        main(["--n", "1e6", "metrics"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cmd", ["", "metrics", "critical-path", "whatif",
                                 "mem", "flows"])
def test_missing_fault_plan_is_a_one_line_exit_2(cmd):
    argv = [cmd] if cmd else []
    code, text = run_cli(*argv, "--n", "1e6", "--batch-size", "2.5e5",
                         "--faults", "/nonexistent/plan.json")
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    assert text.startswith(" ".join(["repro", *argv]) + ": ")
    assert "fault plan" in text


@pytest.mark.parametrize("entry", [1, {"kind": "pcie.transient",
                                       "after": "x"}])
def test_malformed_fault_plan_is_a_one_line_exit_2(tmp_path, entry):
    import json
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"schema": "repro.faults/v1",
                                "faults": [entry]}))
    code, text = run_cli("--n", "1e6", "--batch-size", "2.5e5",
                         "--faults", str(plan))
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    assert text.startswith("repro: ")


@pytest.mark.parametrize("argv,message", [
    (("--n", "0"), "nothing to sort (n=0)"),
    (("--n", "1e6", "--streams", "0"), "n_streams must be >= 1, got 0"),
    (("--n", "6e9"), "host needs ~3n = 144000000000 B"),
    (("--n", "1e9", "--batch-size", "3e10"), "of global memory"),
    (("metrics", "--n", "6e9"), "host needs ~3n = 144000000000 B"),
    (("--n", "1e6", "--gpus", "3"), "PLATFORM1 has 1 GPU(s); requested 3"),
    (("serve", "--timing", "--max-concurrent", "0"),
     "max_concurrent must be >= 1"),
    (("serve", "--timing", "--gpus-per-job", "0"),
     "gpus_per_job must be >= 1"),
    (("serve", "--timing", "--epoch", "0"), "epoch_s must be > 0, got 0.0"),
    (("serve", "--timing", "--epoch", "nan"),
     "epoch_s must be > 0, got nan"),
    (("serve", "--timing", "--reclaim", "1"),
     "reclaim must be in [0, 1), got 1.0"),
])
def test_out_of_range_run_input_is_a_one_line_exit_2(argv, message):
    code, text = run_cli(*argv)
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    prog = f"repro {argv[0]}" if argv[0] in ("metrics", "serve") else "repro"
    assert text.startswith(f"{prog}: ")
    assert message in text


def test_metrics_applies_the_fault_plan(tmp_path):
    plan = tmp_path / "plan.json"
    assert run_cli("chaos", "--fault-seed", "17", "--functional", "100000",
                   "--plan-out", str(plan))[0] == 0
    argv = ("metrics", "--functional", "100000", "--batch-size", "25000",
            "--pinned", "1e4")
    code, clean = run_cli(*argv)
    assert code == 0
    assert "Retry=" not in clean
    code, text = run_cli(*argv, "--faults", str(plan))
    assert code == 0
    assert "Retry=" in text.splitlines()[2]     # the components line


@pytest.mark.parametrize("scale", [(), ("--scale", "GPUSort=0.5")])
def test_whatif_writes_trace_and_report(tmp_path, scale):
    import json
    trace, report = tmp_path / "t.json", tmp_path / "r.json"
    code, text = run_cli("whatif", "--n", "1e6", "--batch-size", "2.5e5",
                         "--pinned", "5e4", *scale,
                         "--trace-json", str(trace), "--report", str(report))
    assert code == 0
    assert f"trace events to {trace}" in text
    assert f"wrote run report to {report}" in text
    assert json.loads(trace.read_text())["traceEvents"]
    assert json.loads(report.read_text())["schema"] == "repro.report/v1"


@pytest.mark.parametrize("flag", [
    ("--report", "r.json"), ("--trace-json", "t.json"),
    ("--events", "e.jsonl"), ("--archive", "a.jsonl"),
    ("--faults", "plan.json"), ("--live",), ("--deadline", "1"),
])
def test_compare_rejects_single_run_flags(flag, tmp_path, capsys):
    argv = ["--n", "1e9", "--compare", *flag]
    with pytest.raises(SystemExit) as exc:
        main([a if a.startswith("-") or a[0].isdigit()
              else str(tmp_path / a) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.endswith(f"--compare runs several sorts and takes no "
                        f"single-run flag: {flag[0]}")
    assert list(tmp_path.iterdir()) == []          # nothing written


@pytest.mark.parametrize("content", [
    "[]",
    "{}",
    '{"schema": "repro.flows/v1"}',
    '{"schema": "repro.report/v1", "makespan_s": 1.0, "elapsed_s": 1.0, '
    '"span_index": []}',
])
def test_diff_rejects_a_document_that_is_not_a_report(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, text = run_cli("diff", str(bad), str(bad))
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    assert text.startswith(f"repro diff: {bad}: ")
