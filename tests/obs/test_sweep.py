"""Sweep harness and ledger tests: grids, schemas, byte-stability."""

import json

import pytest

from repro.errors import LedgerError
from repro.obs.sweep import (GRIDS, LEDGER_SCHEMA, ledger_record,
                             load_ledger, run_point, run_sweep,
                             sweep_points, write_ledger)


@pytest.fixture(scope="module")
def tiny_records():
    return run_sweep(sweep_points("tiny"), model_n=4_000_000)


def test_unknown_grid_raises():
    with pytest.raises(LedgerError, match="unknown sweep grid"):
        sweep_points("gigantic")


def test_every_grid_is_buildable():
    for name in GRIDS:
        pts = sweep_points(name)
        assert pts, name
        ids = [p["run_id"] for p in pts]
        assert len(ids) == len(set(ids)), f"{name}: duplicate run_ids"
        for p in pts:
            assert {"platform", "approach", "n", "n_gpus", "n_streams",
                    "batch_size", "pinned_elements",
                    "memcpy_threads"} <= set(p)


def test_ledger_record_schema(tiny_records):
    for rec in tiny_records:
        assert rec["schema"] == LEDGER_SCHEMA
        assert rec["run_id"]
        assert set(rec["measured"]) == {
            "makespan_s", "elapsed_s", "related_work_s",
            "missing_overhead_s", "throughput_el_per_s"}
        assert rec["report"]["makespan_s"] == \
            rec["conformance"]["measured_s"]
        assert rec["point"]["n"] == rec["conformance"]["n"]


def test_conformance_attached_to_result_metrics():
    from repro.hw.platforms import get_platform
    from repro.model.lowerbound import measure_bline_throughput
    pt = sweep_points("tiny")[0]
    model = measure_bline_throughput(get_platform(pt["platform"]),
                                     n_gpus=pt["n_gpus"], n=4_000_000)
    res = run_point(pt)
    assert res.conformance is None
    rec = ledger_record(res, pt, model)
    assert res.metrics["conformance"] is rec["conformance"]
    assert res.conformance == rec["conformance"]


def test_ledger_is_byte_stable(tmp_path):
    """Same grid, same seed -> byte-identical ledger files (the CI
    conformance gate's foundational property)."""
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_ledger(run_sweep(sweep_points("tiny"), model_n=4_000_000), a)
    write_ledger(run_sweep(sweep_points("tiny"), model_n=4_000_000), b)
    assert a.read_bytes() == b.read_bytes()


def test_ledger_round_trip(tmp_path, tiny_records):
    path = tmp_path / "ledger.jsonl"
    write_ledger(tiny_records, path)
    loaded = load_ledger(path)
    assert loaded == json.loads(
        json.dumps(tiny_records))  # tuples etc. normalised away


def test_load_ledger_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "repro.sweep/v1"}\nnot json\n')
    with pytest.raises(LedgerError, match="not valid JSON"):
        load_ledger(path)


def test_load_ledger_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "somebody.else/v9"}\n')
    with pytest.raises(LedgerError, match="unknown ledger schema"):
        load_ledger(path)


@pytest.mark.parametrize("line, match", [
    ("[]", "expected a JSON object, got list"),
    ("1", "expected a JSON object, got int"),
    ('"x"', "expected a JSON object, got str"),
    ('{"schema": "repro.sweep/v1", "makespan_s": NaN}', "non-finite"),
    ('{"schema": "repro.sweep/v1", "makespan_s": Infinity}', "non-finite"),
    ('{"schema": "repro.sweep/v1", "makespan_s": -Infinity}', "non-finite"),
])
def test_load_ledger_rejects_non_object_and_non_finite_lines(
        tmp_path, line, match):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "repro.sweep/v1"}\n' + line + "\n")
    with pytest.raises(LedgerError, match=f"bad.jsonl:2: .*{match}"):
        load_ledger(path)


def test_run_sweep_reports_progress(tiny_records):
    lines = []
    run_sweep(sweep_points("tiny"), model_n=4_000_000,
              progress=lines.append)
    assert len(lines) == len(tiny_records)
    assert all("measured" in ln and "model" in ln for ln in lines)
