"""One fuzz over every reader of a versioned document.

Each reader gets a valid file of its kind, damaged one way: missing,
non-UTF-8 bytes, a truncated line, a non-object line, a foreign schema,
a non-finite number, or a value of the wrong type somewhere in it (for
the event log and the archive, also in a field its readers use).
Whatever the damage, the reader raises its own
:class:`~repro.errors.ReproError` subclass and nothing else -- no
``TypeError``, ``KeyError`` or ``UnicodeDecodeError`` reaches a caller.
"""

from __future__ import annotations

import json
import shutil

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro import PLATFORM1, HeterogeneousSorter  # noqa: E402
from repro.errors import (ArchiveError, EventLogError,  # noqa: E402
                          FaultPlanError, LedgerError, ReportError)
from repro.obs import (EV, append_entries, load_archive,  # noqa: E402
                       load_ledger, load_report, make_entry, read_events,
                       run_report, validate_archive, validate_event_log,
                       write_report)
from repro.obs.archive import _ENTRY_FIELDS  # noqa: E402
from repro.obs.events import _EVENT_FIELDS  # noqa: E402
from repro.obs.sinks import JsonlSink  # noqa: E402
from repro.obs.sweep import LEDGER_SCHEMA  # noqa: E402
from repro.schema import is_int, is_number  # noqa: E402
from repro.sim.faults import FaultPlan  # noqa: E402

#: reader name -> (reader, its error, the file it reads, the file the
#: fuzz damages: the archive's manifest is a document of its own)
READERS = {
    "load_report": (load_report, ReportError, "report.json", None),
    "load_ledger": (load_ledger, LedgerError, "ledger.jsonl", None),
    "load_archive": (load_archive, ArchiveError, "archive.jsonl", None),
    "validate_archive": (validate_archive, ArchiveError, "archive.jsonl",
                         None),
    "validate_archive/manifest": (validate_archive, ArchiveError,
                                  "archive.jsonl", "archive.manifest.json"),
    "read_events": (read_events, EventLogError, "run.events.jsonl", None),
    "validate_event_log": (validate_event_log, EventLogError,
                           "run.events.jsonl", None),
    "FaultPlan.load": (FaultPlan.load, FaultPlanError, "plan.json", None),
}

#: Damage every reader must reject.  A wrong-typed value ("type") may be
#: harmless to a reader that checks no fields; it must only never
#: escape as an untyped exception.
MUST_RAISE = ("missing", "utf8", "truncated", "non_object", "schema",
              "non_finite")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
NON_OBJECTS = JSON_VALUES.filter(lambda v: not isinstance(v, dict))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """One valid file of every kind, written by the package's writers."""
    root = tmp_path_factory.mktemp("docs")
    sorter = HeterogeneousSorter(PLATFORM1, batch_size=250_000,
                                 pinned_elements=50_000)
    res = sorter.sort(n=1_000_000, approach="pipedata",
                      sinks=[JsonlSink(root / "run.events.jsonl")])
    write_report(run_report(res), root / "report.json")
    (root / "ledger.jsonl").write_text("".join(
        json.dumps({"schema": LEDGER_SCHEMA, "run_id": f"r{i}",
                    "measured": {"makespan_s": 0.5 * i}}) + "\n"
        for i in (1, 2)))
    append_entries(root / "archive.jsonl", [
        make_entry(source="test", label="x", point={"n": n},
                   metrics={"makespan_s": 1.0, "n": n}) for n in (1, 2)])
    FaultPlan.random(17, n_gpus=2).save(root / "plan.json")
    return root


def _damage(lines: list[bytes], how: str, data,
            header_only: bool = False) -> list[bytes]:
    """``lines`` (one element for a JSON document) damaged ``how``;
    ``header_only`` files carry the schema on their first line only."""
    i = 0 if how == "schema" and header_only else \
        data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if how == "utf8":
        cut = data.draw(st.integers(0, len(line)))
        bad = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3\x28",
                                         b"\xed\xa0\x80"]))
        line = line[:cut] + bad + line[cut:]
    elif how == "truncated":
        line = line[:data.draw(st.integers(1, len(line.rstrip()) - 1))]
    elif how == "non_object":
        line = json.dumps(data.draw(NON_OBJECTS)).encode()
    elif how == "non_finite":
        token = data.draw(st.sampled_from(
            ["NaN", "Infinity", "-Infinity", "1e999", "-2e400",
             "1" + "0" * 400]))
        line = line.rstrip()[:-1] + b', "x": ' + token.encode() + b"}"
    else:
        doc = json.loads(line)
        if how == "schema":
            doc["schema"] = data.draw(st.text(max_size=12).filter(
                lambda s: s != doc["schema"]))
        elif how == "event_field":
            _damage_event(doc, data)
        elif how == "entry_field":
            _damage_entry(doc, data)
        else:
            _replace_a_value(doc, data)
        line = json.dumps(doc).encode()
    return lines[:i] + [line] + lines[i + 1:]


def _replace_a_value(doc, data) -> None:
    """Replace one value anywhere in ``doc`` with an arbitrary one."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys)))
        child = node[key]
        if isinstance(child, (dict, list)) and child \
                and data.draw(st.booleans()):
            node = child
            continue
        node[key] = data.draw(JSON_VALUES)
        return


def _damage_event(doc, data) -> None:
    """Give an event line's time, data or one of its kind's fields a
    value of the wrong type."""
    fields = _EVENT_FIELDS[doc["kind"]]
    target = data.draw(st.sampled_from(["t", "data", *sorted(fields)]))
    if target == "t":
        doc["t"] = "x"
    elif target == "data":
        doc["data"] = data.draw(NON_OBJECTS)
    else:
        doc["data"][target.rstrip("?")] = 1 if fields[target] is str else "x"


def _damage_entry(doc, data) -> None:
    """Give one archive-entry key its readers use a wrong-typed value."""
    typed = sorted(k for k, t in _ENTRY_FIELDS.items() if t is not object)
    key = data.draw(st.sampled_from(typed))
    want = _ENTRY_FIELDS[key]
    doc[key] = data.draw(JSON_VALUES.filter(
        lambda v: not isinstance(v, want)))


@pytest.mark.parametrize("name", sorted(READERS))
@given(data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_reader_raises_only_its_typed_error(name, data, base,
                                                  tmp_path):
    reader, error, read, damaged = READERS[name]
    damaged = damaged or read
    for doc in {read, damaged, "archive.manifest.json"}:
        shutil.copy(base / doc, tmp_path)
    hows = [*MUST_RAISE, "type"]
    if name == "validate_event_log":
        hows.append("event_field")
    if name in ("load_archive", "validate_archive"):
        hows.append("entry_field")
    how = data.draw(st.sampled_from(hows))
    path = tmp_path / damaged
    if how == "missing":
        path.unlink()
    else:
        raw = path.read_bytes()
        if how == "event_field":     # an event line, not the header
            head, *events = raw.splitlines()
            lines = [head, *_damage(events, how, data)]
        elif damaged.endswith(".jsonl"):
            lines = _damage(raw.splitlines(), how, data,
                            header_only=damaged.endswith("events.jsonl"))
        else:
            lines = _damage([raw], how, data)
        path.write_bytes(b"\n".join(lines) + b"\n")
    if how == "type":
        try:
            reader(tmp_path / read)
        except error:
            pass
    else:
        with pytest.raises(error):
            reader(tmp_path / read)


def test_event_field_table_covers_every_kind():
    kinds = [v for k, v in vars(EV).items() if k.isupper()]
    assert sorted(_EVENT_FIELDS) == sorted(kinds)


@pytest.mark.parametrize("kind, field", [("run.start", "n_batches"),
                                         ("mem.watermark", "capacity_bytes")])
def test_optional_field_a_reader_divides_by_is_typed(kind, field, base,
                                                     tmp_path):
    head, *lines = (base / "run.events.jsonl").read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    doc = next(d for d in docs if d["kind"] == kind)
    doc["data"][field] = "4"
    path = tmp_path / "run.events.jsonl"
    path.write_text("\n".join([head, *map(json.dumps, docs)]) + "\n")
    with pytest.raises(EventLogError, match=f"{kind} {field} must be Real"):
        validate_event_log(path)


@pytest.mark.parametrize("value, number, integer", [
    (0, True, True), (-3, True, True), (1.5, True, False),
    (True, False, False), (False, False, False), ("1", False, False),
    (None, False, False), ([1], False, False)])
def test_number_predicates_never_count_a_bool(value, number, integer):
    assert is_number(value) is number
    assert is_int(value) is integer
