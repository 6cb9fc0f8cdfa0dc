"""The golden gate (``benchmarks/gate.py``).

The committed golden file must reproduce on this code; tampering with
it must fail exactly the tampered pair; a one-ulp change to the
fair-share allocator must flip exactly the pinned digests; and a
malformed golden file must be a typed :class:`~repro.errors.GoldenError`,
never a traceback.
"""

import copy
import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GoldenError
from repro.sim.bandwidth import FlowNetwork


def _load_gate_module():
    path = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "gate.py")
    spec = importlib.util.spec_from_file_location("gate", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gate = _load_gate_module()

#: Pairs a one-ulp cut to every fair-share grant flips, as measured.
#: Each sort's flow ledger records the perturbed rates, and the
#: fair-share service verdict reports rate-integrated bytes moved.  Each
#: sort's event log carries one ``flow.rate`` event per flow with the
#: perturbed rate.  Completion times do not move (so neither do reports,
#: memory ledgers, counter summaries, event counts or the sweep ledger),
#: output bits never depend on timing, and the other three allocators
#: never take the fair-share fill (so neither the strict-priority
#: verdicts nor the fixed-levels service log move).
ULP_FLIPS = {"bline_1m/flows", "pipemerge_2m/flows",
             "pipedata_2gpu_2m/flows", "gpumerge_2m/flows",
             "pipemerge_2e8/flows", "serve_fair_share/verdict",
             "functional_pipemerge/log", "functional_pipemerge_random17/log",
             "functional_pipemerge_pinned50/log",
             "timing_pipedata_platform2_2gpus/log"}


@pytest.fixture(scope="module")
def golden():
    doc = gate.load_golden(gate.GOLDEN)
    # The events/s floor is a wall-clock property of the CI runner, not
    # something a loaded tier-1 run can hold.
    doc["tolerances"]["events_floor"] = 0.0
    return doc


@pytest.fixture(scope="module")
def measured(gate_measured):
    return gate_measured


def _failing(golden, measured):
    return {pair: msgs for pair, msgs in gate.check(golden, measured).items()
            if msgs}


def test_committed_golden_reproduces(golden, measured):
    assert set(measured) == set(gate.PAIRS)
    assert _failing(golden, measured) == {}


def test_tampered_golden_fails(golden, measured):
    tampered = copy.deepcopy(golden)
    tampered["pairs"]["bline_1m/report"]["makespan_s"] *= 0.5
    digests = ("serve_max_min/verdict", "pipemerge_2e8/counters",
               "functional_pipemerge_random17/log", "special_bline/output")
    for pair in digests:
        tampered["pairs"][pair]["sha256"] = "0" * 64
    failures = _failing(tampered, measured)
    assert set(failures) == {"bline_1m/report", *digests}
    assert failures["bline_1m/report"][0].startswith(
        "bline_1m/report: makespan regressed")
    for pair in digests:
        new = measured[pair]["sha256"]
        assert failures[pair] == [f"{pair}: digest {'0' * 64} -> {new}"]


def test_one_ulp_fair_share_change_flips_pinned_pairs(golden, monkeypatch):
    fill = FlowNetwork._fill

    def fill_one_ulp_low(flows):
        fill(flows)
        fair_share = all(l.policy is None
                         or not (l.policy.weighted or l.policy.layered)
                         for f in flows for l, _ in f.links)
        if fair_share:
            for f in flows:
                f.rate = math.nextafter(f.rate, 0.0)

    monkeypatch.setattr(FlowNetwork, "_fill", staticmethod(fill_one_ulp_low))
    perturbed = gate.run_corpus()
    failures = _failing(golden, perturbed)
    assert set(failures) == ULP_FLIPS
    for pair, msgs in failures.items():
        old = golden["pairs"][pair]["sha256"]
        assert msgs == [f"{pair}: digest {old} -> {perturbed[pair]['sha256']}"]
        assert perturbed[pair]["sha256"] != old


# ---------------------------------------------------------------------------
# Malformed golden files
# ---------------------------------------------------------------------------

GOLDEN_TEXT = pathlib.Path(gate.GOLDEN).read_text()
GOLDEN_DOC = json.loads(GOLDEN_TEXT)
PAIRS = sorted(GOLDEN_DOC["pairs"])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _non_finite_band(doc, data):
    pair = data.draw(st.sampled_from(
        [p for p in PAIRS if len(doc["pairs"][p]) > 1]))
    frozen = doc["pairs"][pair]
    key = data.draw(st.sampled_from(sorted(set(frozen) - {"sha256"})))
    if isinstance(frozen[key], dict):
        frozen[key][data.draw(st.sampled_from(sorted(frozen[key])))] = \
            data.draw(NON_FINITE)
    else:
        frozen[key] = data.draw(NON_FINITE)


def _corrupt(doc, data):
    """Apply one drawn malformation to ``doc`` (in place)."""
    how = data.draw(st.sampled_from(
        ["schema", "digest", "tolerance", "band", "missing", "type"]))
    if how == "schema":
        doc["schema"] = data.draw(JSON_VALUES.filter(
            lambda v: v != gate.GOLDEN_SCHEMA))
    elif how == "digest":
        pair = data.draw(st.sampled_from(PAIRS))
        doc["pairs"][pair]["sha256"] = data.draw(
            JSON_VALUES.filter(lambda v: not (
                isinstance(v, str) and gate._HEX.fullmatch(v))))
    elif how == "tolerance":
        key = data.draw(st.sampled_from(sorted(doc["tolerances"])))
        doc["tolerances"][key] = data.draw(NON_FINITE)
    elif how == "band":
        _non_finite_band(doc, data)
    elif how == "missing":
        del doc["pairs"][data.draw(st.sampled_from(PAIRS))]
    else:
        key = data.draw(st.sampled_from(["schema", "tolerances", "pairs"]))
        doc[key] = data.draw(JSON_VALUES.filter(
            lambda v: not isinstance(v, dict) and v != gate.GOLDEN_SCHEMA))


@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_golden_is_a_typed_error(data, tmp_path):
    if data.draw(st.booleans()):
        # Truncated: any strict prefix of the committed document.
        cut = data.draw(st.integers(0, len(GOLDEN_TEXT.rstrip()) - 1))
        text = GOLDEN_TEXT[:cut]
    else:
        doc = copy.deepcopy(GOLDEN_DOC)
        _corrupt(doc, data)
        text = json.dumps(doc)
    path = tmp_path / "golden.json"
    path.write_text(text)
    with pytest.raises(GoldenError):
        gate.load_golden(str(path))


def test_malformed_golden_exits_1_with_one_line(tmp_path, monkeypatch,
                                                capsys):
    bad = tmp_path / "golden.json"
    bad.write_text(GOLDEN_TEXT[:len(GOLDEN_TEXT) // 2])
    monkeypatch.setattr(gate, "GOLDEN", str(bad))
    assert gate.main([]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("golden file rejected:")


def test_update_refuses_to_freeze_a_broken_invariant(tmp_path, monkeypatch,
                                                     capsys):
    target = tmp_path / "golden.json"
    monkeypatch.setattr(gate, "GOLDEN", str(target))
    monkeypatch.setattr(gate, "run_corpus", lambda out_dir=None: {
        "bline_1m/memory": {"sha256": "0" * 64, "bands": {},
                            "invariants": ["ledger did not balance to zero"],
                            "entries": None}})
    assert gate.main(["--update"]) == 1
    assert not target.exists()
    assert ("INVARIANT: bline_1m/memory: ledger did not balance to zero"
            in capsys.readouterr().err)


def test_update_named_pairs_rewrites_only_those(tmp_path, monkeypatch,
                                                measured):
    doc = copy.deepcopy(GOLDEN_DOC)
    doc["pairs"]["bline_1m/report"]["sha256"] = "0" * 64
    doc["pairs"]["pipedata_hotpath/events"]["events_per_s"] = 1.5
    del doc["pairs"]["gpumerge_2m/flows"]
    target = tmp_path / "golden.json"
    target.write_text(gate.canonical_json(doc) + "\n")
    monkeypatch.setattr(gate, "GOLDEN", str(target))
    monkeypatch.setattr(gate, "run_corpus", lambda out_dir=None: measured)
    assert gate.main(["--update", "pipedata_hotpath/events",
                      "gpumerge_2m/flows"]) == 0
    fresh = gate.freeze(measured)["pairs"]
    for pair in ("pipedata_hotpath/events", "gpumerge_2m/flows"):
        doc["pairs"][pair] = fresh[pair]
    # Everything else, the tampered digest included, is kept as it was.
    assert target.read_text() == gate.canonical_json(doc) + "\n"


def test_update_rejects_an_unknown_pair(monkeypatch):
    monkeypatch.setattr(gate, "run_corpus", None)
    with pytest.raises(SystemExit) as exc:
        gate.main(["--update", "nope/report"])
    assert exc.value.code == 2


def test_invariants_name_lost_log_coverage_and_lost_specials():
    by_name = {sc["name"]: sc for sc in gate.SCENARIOS}
    sc = by_name["functional_pipemerge_pinned50"]
    log = '{"schema":"repro.events/v2"}\n' + '{"kind":"fault.injected"}\n' * 8
    _, broken, _, _ = gate._log(sc, None, {"log": log})
    assert broken == [
        """schema header is '{"schema":"repro.events/v2"}'""",
        "violates repro.events/v1: event 0: sequence None breaks the "
        "gapless order",
        "0 retry.attempt events, expected 6",
        "0 degrade.replan events, expected 6"]

    # A well-formed line whose data breaks the kind's field table.
    log = ('{"schema":"repro.events/v1"}\n'
           '{"data":{"id":"3","moved":1.0},"kind":"flow.end","seq":0,'
           '"t":0.0}\n')
    _, broken, _, _ = gate._log(by_name["functional_pipemerge"], None,
                                {"log": log})
    assert broken[0] == ("violates repro.events/v1: event 0: flow.end id "
                         "must be Integral, got str")

    class Result:
        output = np.abs(gate.special_input(60_000, 2023))
    _, broken, _, _ = gate._output(by_name["special_bline"], Result, {})
    assert broken == ["output lost the special values "
                      "[-0.0, -inf, -5e-324, -2.2e-308, -1.5]"]
