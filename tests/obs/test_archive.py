"""The cross-run performance archive: content addressing, append-only
idempotency, byte stability, and validation.

The acceptance criteria this file pins: the archive is byte-stable and
append-only (re-archiving the same deterministic run is a byte-level
no-op on both the JSONL and the manifest sidecar), and
:func:`validate_archive` rejects corruption, duplicates and manifest
drift with typed errors.
"""

import json

import pytest

from repro.errors import ArchiveError
from repro.hetsort import HeterogeneousSorter
from repro.hw.platforms import get_platform
from repro.obs import (append_entries, archive_summary, build_manifest,
                       canonical_json, entry_from_ledger,
                       entry_from_result, entry_id, fingerprint,
                       load_archive, make_entry, manifest_path,
                       validate_archive)


def small_result(n=1_000_000, approach="bline"):
    sorter = HeterogeneousSorter(get_platform("PLATFORM1"),
                                 approach=approach,
                                 pinned_elements=50_000)
    return sorter.sort(n=n)


def synthetic_entry(makespan=1.0, label="t", source="run", n=1000):
    return make_entry(source=source, label=label,
                      point={"approach": "bline", "n": n},
                      metrics={"makespan_s": makespan})


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------


def test_fingerprint_is_point_only():
    a = make_entry(source="run", label="one",
                   point={"n": 5, "approach": "bline"},
                   metrics={"makespan_s": 1.0})
    b = make_entry(source="gate:x", label="two",
                   point={"approach": "bline", "n": 5},
                   metrics={"makespan_s": 2.0})
    assert a["fingerprint"] == b["fingerprint"]       # key order ignored
    assert a["entry"] != b["entry"]                   # body differs


def test_entry_id_matches_recomputation():
    e = synthetic_entry()
    assert e["entry"] == entry_id(e)
    assert e["fingerprint"] == fingerprint(e["point"])


def test_metrics_must_be_finite_numbers():
    for bad in (float("nan"), float("inf"), "fast", True, None):
        with pytest.raises(ArchiveError):
            make_entry(source="run", label="x", point={"n": 1},
                       metrics={"m": bad})


def test_entry_from_result_carries_report_and_lanes():
    res = small_result()
    e = entry_from_result(res, label="bline_1m")
    assert e["schema"] == "repro.archive/v1"
    assert e["metrics"]["elapsed_s"] == res.elapsed
    assert e["metrics"]["throughput_el_per_s"] > 0
    assert e["metrics"]["makespan_s"] == e["report"]["makespan_s"]
    assert e["lanes"]                                  # utilization fractions
    assert all(0.0 <= u <= 1.0 + 1e-9 for u in e["lanes"].values())
    # the whole entry is strict JSON
    json.dumps(e, allow_nan=False)


def test_entry_from_result_is_deterministic():
    a = entry_from_result(small_result(), label="x")
    b = entry_from_result(small_result(), label="x")
    assert a == b
    assert canonical_json(a) == canonical_json(b)


def test_entry_from_ledger_roundtrip():
    from repro.obs import run_sweep
    from repro.obs.sweep import sweep_points
    records = run_sweep(sweep_points("ci")[:1], model_n=1_000_000)
    e = entry_from_ledger(records[0])
    assert e["label"] == records[0]["run_id"]
    assert e["metrics"]["makespan_s"] == \
        records[0]["measured"]["makespan_s"]
    assert e["point"] == records[0]["point"]


# ---------------------------------------------------------------------------
# Append-only idempotency / byte stability
# ---------------------------------------------------------------------------


def test_append_twice_is_byte_identical(tmp_path):
    path = tmp_path / "arch.jsonl"
    entries = [synthetic_entry(1.0), synthetic_entry(2.0, n=2000)]
    fresh = append_entries(path, entries)
    assert len(fresh) == 2
    first = path.read_bytes()
    first_manifest = (tmp_path / "arch.manifest.json").read_bytes()
    fresh = append_entries(path, entries)
    assert fresh == []
    assert path.read_bytes() == first
    assert (tmp_path / "arch.manifest.json").read_bytes() \
        == first_manifest


def test_append_only_ever_extends(tmp_path):
    path = tmp_path / "arch.jsonl"
    append_entries(path, [synthetic_entry(1.0)])
    before = path.read_bytes()
    append_entries(path, [synthetic_entry(1.0), synthetic_entry(3.0)])
    after = path.read_bytes()
    assert after.startswith(before)        # old bytes never rewritten
    assert len(load_archive(path)) == 2


def test_append_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "er" / "arch.jsonl"
    append_entries(path, [synthetic_entry()])
    assert path.exists()
    assert validate_archive(path)["n_entries"] == 1


def test_append_rejects_tampered_entry(tmp_path):
    e = synthetic_entry()
    e["metrics"]["makespan_s"] = 99.0      # body no longer matches hash
    with pytest.raises(ArchiveError, match="content hash"):
        append_entries(tmp_path / "a.jsonl", [e])


def test_entries_write_a_null_profile_and_older_profiles_still_load(
        tmp_path):
    e = synthetic_entry()
    assert e["profile"] is None
    # Archives written while entries carried a kernel-profile object.
    old = dict(e, profile={"sim.engine.run": {"calls": 1, "total_s": 0.5}})
    old["entry"] = entry_id(old)
    path = tmp_path / "a.jsonl"
    append_entries(path, [e, old])
    assert validate_archive(path)["n_entries"] == 2
    assert load_archive(path)[1]["profile"] == old["profile"]


def test_manifest_path_sidecar():
    assert manifest_path("x/runs.jsonl") == "x/runs.manifest.json"
    assert manifest_path("runs") == "runs.manifest.json"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_ok_summary(tmp_path):
    path = tmp_path / "a.jsonl"
    append_entries(path, [synthetic_entry(1.0),
                          synthetic_entry(2.0, source="gate:x", n=2)])
    summary = validate_archive(path)
    assert summary["n_entries"] == 2
    assert summary["n_fingerprints"] == 2
    assert summary["sources"] == {"gate:x": 1, "run": 1}
    assert "makespan_s" in summary["metrics"]


def test_validate_rejects_corrupted_line(tmp_path):
    path = tmp_path / "a.jsonl"
    append_entries(path, [synthetic_entry()])
    text = path.read_text().replace("makespan_s", "makespan_x")
    path.write_text(text)
    with pytest.raises(ArchiveError):
        validate_archive(path)


def test_validate_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "a.jsonl"
    e = synthetic_entry()
    line = canonical_json(e, indent=None) + "\n"
    path.write_text(line + line)
    (tmp_path / "a.manifest.json").write_text(
        canonical_json(build_manifest([e, e])))
    with pytest.raises(ArchiveError, match="duplicate"):
        validate_archive(path)


def test_validate_rejects_missing_manifest(tmp_path):
    path = tmp_path / "a.jsonl"
    append_entries(path, [synthetic_entry()])
    (tmp_path / "a.manifest.json").unlink()
    with pytest.raises(ArchiveError, match="manifest missing"):
        validate_archive(path)


def test_validate_rejects_stale_manifest(tmp_path):
    path = tmp_path / "a.jsonl"
    append_entries(path, [synthetic_entry(1.0)])
    # append a line behind the manifest's back
    with open(path, "a") as fh:
        fh.write(canonical_json(synthetic_entry(2.0, n=7),
                                indent=None) + "\n")
    with pytest.raises(ArchiveError, match="disagrees"):
        validate_archive(path)


def test_validate_rejects_unknown_schema(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"schema": "repro.other/v9"}\n')
    with pytest.raises(ArchiveError, match="unknown archive schema"):
        load_archive(path)


@pytest.mark.parametrize("line, kind", [
    ("[]", "list"), ("1", "int"), ('"x"', "str"), ("null", "NoneType")])
def test_load_archive_rejects_non_object_lines(tmp_path, line, kind):
    path = tmp_path / "a.jsonl"
    path.write_text(canonical_json(synthetic_entry(1.0), indent=None)
                    + "\n" + line + "\n")
    with pytest.raises(ArchiveError,
                       match=f"a.jsonl:2: expected a JSON object, "
                             f"got {kind}"):
        load_archive(path)


def test_archive_summary_pure():
    entries = [synthetic_entry(1.0), synthetic_entry(2.0, n=2)]
    s = archive_summary(entries)
    assert s["n_entries"] == 2
    assert sorted(s["fingerprints"].values()) == [1, 1]
