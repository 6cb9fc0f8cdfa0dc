"""Interconnect flow observatory unit tests: the grant ledger's
accounting and bus mirroring, the bit-for-bit rate-integral and
contention-attribution invariants, span reconciliation against the
causal trace, and byte-stability of the ``repro.flows/v1`` document."""

import pytest

from repro.errors import FlowLedgerError
from repro.hetsort import HeterogeneousSorter
from repro.hw.platforms import PLATFORM1, PLATFORM2
from repro.obs import (EV, EventBus, FlowLedger, Sink,
                       attribute_contention, canonical_json,
                       concurrency_series, flow_rate_counters,
                       link_peaks, link_timelines, link_utilization,
                       reconcile_flow_spans, settled_split,
                       verify_contention, verify_rate_integral)
from repro.sim.bandwidth import FlowNetwork
from repro.sim.engine import Environment


class _Collect(Sink):
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def _net_with_ledger(caps):
    env = Environment()
    net = FlowNetwork(env)
    links = {name: net.add_link(name, cap) for name, cap in caps.items()}
    net.ledger = FlowLedger(clock=lambda: env.now, capacities=caps)
    return env, net, links


# ---------------------------------------------------------------------------
# The ledger on a raw network
# ---------------------------------------------------------------------------

def test_ledger_records_lifecycle_and_rates():
    env, net, links = _net_with_ledger({"l": 10.0})

    def p():
        yield net.transfer(50.0, [links["l"]], label="x")

    env.process(p())
    env.run()
    led = net.ledger
    assert led.n_flows == 1
    rec = led.flows[0]
    assert rec["label"] == "x"
    assert rec["nbytes"] == 50.0
    assert rec["links"] == [["l", 1.0]]
    assert rec["iso_rate"] == 10.0
    assert rec["start"] == 0.0 and rec["end"] == 5.0
    assert rec["moved"] == 50.0
    assert rec["rates"][0] == [0.0, 10.0, 0.0]
    assert led.bytes_moved == 50.0


def test_two_flows_share_and_integral_holds_bitwise():
    env, net, links = _net_with_ledger({"l": 10.0})

    def p(nbytes, delay):
        yield env.timeout(delay)
        yield net.transfer(nbytes, [links["l"]])

    env.process(p(50.0, 0.0))
    env.process(p(30.0, 1.0))
    env.run()
    doc = net.ledger.to_dict()
    ri = verify_rate_integral(doc)
    assert ri["ok"], ri["failures"]
    assert ri["checked"] == 2
    # while both flows are active each is granted half the link
    assert [5.0, doc["flows"][0]["rates"][1][1]] == [5.0, 5.0]
    # the aggregate granted rate never exceeds capacity
    for name, pts in link_timelines(doc).items():
        assert max(load for _, load in pts) <= 10.0 * (1 + 1e-12)
    util = link_utilization(doc)["l"]
    assert max(u for _, u in util) == pytest.approx(1.0)
    assert link_peaks(doc)["l"]["capacity_bytes_per_s"] == 10.0


def test_zero_byte_flow_is_recorded_instantly():
    env, net, links = _net_with_ledger({"l": 10.0})

    def p():
        yield net.transfer(0.0, [links["l"]], label="z")

    env.process(p())
    env.run()
    rec = net.ledger.flows[0]
    assert rec["start"] == rec["end"] == 0.0
    assert rec["rates"] == []
    assert verify_rate_integral(net.ledger.to_dict())["ok"]


def test_capacity_change_is_ledgered():
    env, net, links = _net_with_ledger({"l": 10.0})

    def p():
        yield net.transfer(50.0, [links["l"]])

    def chaos():
        yield env.timeout(1.0)
        net.set_capacity(links["l"], 5.0)

    env.process(p())
    env.process(chaos())
    env.run()
    doc = net.ledger.to_dict()
    assert doc["capacity_events"] == [[1.0, "l", 5.0]]
    # utilization tracks the capacity in effect, so it stays at 1.0
    util = link_utilization(doc)["l"]
    assert all(u == pytest.approx(1.0) for _, u in util[:-1])
    assert verify_rate_integral(doc)["ok"]


def test_same_instant_capacity_changes_last_written_wins():
    doc = {"schema": "repro.flows/v1", "capacities": {"l": 10.0},
           "capacity_events": [[1.0, "l", 8.0], [1.0, "l", 4.0]],
           "n_flows": 1,
           "flows": [{"id": 0, "label": "x", "nbytes": 8.0,
                      "links": [["l", 1.0]], "cap": None, "iso_rate": 10.0,
                      "start": 0.0, "end": 2.0, "span": None, "moved": 8.0,
                      "rates": [[0.0, 4.0, 0.0], [1.0, 4.0, 4.0]]}]}
    assert link_utilization(doc)["l"] == [(0.0, 0.4), (1.0, 1.0),
                                          (2.0, 0.0)]
    assert link_peaks(doc)["l"]["peak_utilization"] == 1.0


def test_ledger_mirrors_bus_events():
    sink = _Collect()
    env, net, links = _net_with_ledger({"l": 10.0})
    bus = EventBus(clock=lambda: env.now)
    bus.attach(sink)
    net.ledger.bus = bus

    def p(nbytes, delay):
        yield env.timeout(delay)
        yield net.transfer(nbytes, [links["l"]])

    env.process(p(50.0, 0.0))
    env.process(p(30.0, 1.0))
    env.run()
    kinds = [e.kind for e in sink.events]
    assert kinds[0] == EV.FLOW_START
    assert kinds.count(EV.FLOW_START) == 2
    assert kinds.count(EV.FLOW_END) == 2
    # flow 0 is re-granted at the join and at the departure
    rate_events = [e for e in sink.events if e.kind == EV.FLOW_RATE]
    assert {e.data["id"] for e in rate_events} >= {0}
    ends = [e for e in sink.events if e.kind == EV.FLOW_END]
    assert ends[0].data["moved"] == pytest.approx(30.0)


def test_bind_span_rejects_unrecorded_flow():
    led = FlowLedger()

    class Ghost:
        fid = -1
        label = "ghost"

    with pytest.raises(FlowLedgerError, match="unrecorded"):
        led.bind_span(Ghost(), 3)


def _aggregates_from_records(records):
    by_tenant = {}
    for rec in records:
        tenant = rec.get("tenant")
        if tenant is not None:
            moved = rec["moved"]
            by_tenant[tenant] = by_tenant.get(tenant, 0.0) + (
                moved if moved else 0.0)
    return {"n_flows": len(records),
            "bytes_moved": sum(r["moved"] for r in records
                               if r["moved"] is not None),
            "spans_bound": sum(1 for r in records if r["span"] is not None),
            "bytes_by_tenant": by_tenant}


def _aggregates_without_building(led, monkeypatch):
    """The ledger's own aggregates, read with `_build_records`
    replaced by a spy that fails the test if anything calls it."""
    calls = []
    monkeypatch.setattr(FlowLedger, "_build_records",
                        lambda self: calls.append(1) or [])
    got = {"n_flows": led.n_flows, "bytes_moved": led.bytes_moved,
           "spans_bound": led.spans_bound,
           "bytes_by_tenant": led.bytes_by_tenant()}
    monkeypatch.undo()
    assert calls == []
    return got


def test_flows_view_is_rebuilt_after_later_hooks(monkeypatch):
    env, net, links = _net_with_ledger({"l": 10.0})
    led = net.ledger
    reads = []

    def p(nbytes, delay, tenant, span_id):
        yield env.timeout(delay)
        flow = yield net.transfer(nbytes, [links["l"]], tenant=tenant)
        led.bind_span(flow, span_id)

    def reader():
        yield env.timeout(2.0)
        first = led.flows
        assert led.flows is first          # cached until the next hook
        aggregates = _aggregates_without_building(led, monkeypatch)
        reads.append((first, canonical_json(first), aggregates))

    env.process(p(50.0, 0.0, "gold", 7))
    env.process(p(30.0, 1.0, None, 8))
    env.process(p(20.0, 1.0, "batch", 9))
    env.process(reader())
    env.run()

    first, first_json, mid = reads[0]
    # Mid-run: three flows in flight, nothing ended or bound yet.
    assert [(r["end"], r["span"], r["moved"]) for r in first] == \
        [(None, None, None)] * 3
    # Flow 0 is re-granted at each of the two joins at t=1.
    assert [len(r["rates"]) for r in first] == [3, 2, 1]
    assert "tenant" not in first[1]
    assert mid == _aggregates_from_records(first)
    # The mid-run view is a snapshot: later hooks build a new one.
    assert canonical_json(first) == first_json
    final = led.flows
    assert final is not first
    assert [r["span"] for r in final] == [7, 8, 9]
    assert all(r["end"] is not None for r in final)
    for early, late in zip(first, final):
        assert late["rates"][:len(early["rates"])] == early["rates"]
    # Later departures re-grant the flows still running: flow 2 ends
    # first (flows 0 and 1 re-granted), then flow 1 (flow 0).
    assert [len(r["rates"]) for r in final] == [5, 3, 1]
    assert final == led.to_dict()["flows"]
    end = _aggregates_without_building(led, monkeypatch)
    assert end == _aggregates_from_records(final)
    assert end["bytes_by_tenant"] == {"gold": 50.0, "batch": 20.0}


def test_ledger_aggregates_match_records_on_a_service_run(monkeypatch):
    from repro.service import ServiceConfig, Tenant, run_service
    tenants = [Tenant("gold", priority=2, share=2.0, n_jobs=2,
                      n_elements=50_000),
               Tenant("batch", n_jobs=2, n_elements=100_000)]
    res = run_service(tenants, ServiceConfig(
        allocator="strict-priority", functional=False, batch_size=20_000,
        pinned_elements=5_000))
    led = res.flow_ledger
    got = _aggregates_without_building(led, monkeypatch)
    assert got == _aggregates_from_records(led.flows)
    assert set(got["bytes_by_tenant"]) == {"gold", "batch"}


def test_concurrency_series_returns_to_zero():
    env, net, links = _net_with_ledger({"l": 10.0})

    def p(delay):
        yield env.timeout(delay)
        yield net.transfer(20.0, [links["l"]])

    for d in (0.0, 0.5, 1.0):
        env.process(p(d))
    env.run()
    series = concurrency_series(net.ledger.to_dict())
    assert max(c for _, c in series) == 3
    assert series[-1][1] == 0


# ---------------------------------------------------------------------------
# settled_split
# ---------------------------------------------------------------------------

def test_settled_split_exact_in_sorted_order():
    total = 0.123456789
    parts = settled_split(total, {"isolation": 0.7, "flow:1": 0.2,
                                  "flow:10": 0.1})
    s = 0.0
    for k in sorted(parts):
        s += parts[k]
    assert s == total


def test_settled_split_degenerate_weights():
    assert settled_split(1.5, {}) == {"unattributed": 1.5}
    assert settled_split(1.5, {"a": 0.0}) == {"unattributed": 1.5}
    assert settled_split(1.5, {"a": 2.0}) == {"a": 1.5}


# ---------------------------------------------------------------------------
# Contention attribution
# ---------------------------------------------------------------------------

def test_contention_charges_the_sharing_flow():
    env, net, links = _net_with_ledger({"l": 10.0})

    def p(nbytes, delay, label):
        yield env.timeout(delay)
        yield net.transfer(nbytes, [links["l"]], label=label)

    env.process(p(50.0, 0.0, "victim"))
    env.process(p(30.0, 1.0, "culprit"))
    env.run()
    doc = net.ledger.to_dict()
    contention = attribute_contention(doc)
    assert verify_contention(contention)["ok"]
    victim = contention["flows"][0]
    # 50 B alone at 10 B/s = 5 s isolation; sharing stretched it
    assert victim["duration_s"] > 5.0
    assert victim["isolation_s"] == pytest.approx(5.0)
    assert victim["slowdown_s"] == pytest.approx(
        victim["duration_s"] - 5.0)
    assert "flow:1" in victim["parts"]
    assert contention["total_contention_s"] > 0.0


def test_uncontended_flow_has_zero_slowdown():
    env, net, links = _net_with_ledger({"l": 10.0})

    def p():
        yield net.transfer(50.0, [links["l"]])

    env.process(p())
    env.run()
    contention = attribute_contention(net.ledger.to_dict())
    f = contention["flows"][0]
    assert f["slowdown_s"] == 0.0
    assert f["parts"] == {"isolation": f["duration_s"]}
    assert contention["total_contention_s"] == 0.0


# ---------------------------------------------------------------------------
# End-to-end: the sorter attaches the ledger
# ---------------------------------------------------------------------------

def _sort(platform=PLATFORM1, n=1_000_000, **kw):
    kw.setdefault("batch_size", 250_000)
    sorter = HeterogeneousSorter(platform, pinned_elements=50_000, **kw)
    return sorter.sort(n=n, approach="pipedata")


def test_sort_result_carries_flow_ledger_and_metrics():
    res = _sort()
    doc = res.flow_ledger.to_dict()
    assert doc["schema"] == "repro.flows/v1"
    assert doc["n_flows"] == len(doc["flows"]) > 0
    assert set(doc["capacities"]) == {"host_bus", "pcie.htod",
                                      "pcie.dtoh"}
    flows = res.metrics["flows"]
    assert flows["n_flows"] == doc["n_flows"]
    assert flows["bytes_moved"] > 0
    assert 0.0 < flows["link_peak_utilization"] <= 1.0
    assert res.flows == flows
    engine = res.metrics["engine"]
    assert engine["processed_events"] > 0
    assert engine["events_per_sim_s"] > 0


def test_sort_ledger_invariants_and_reconciliation():
    res = _sort(platform=PLATFORM2, n=2_000_000, n_gpus=2)
    doc = res.flow_ledger.to_dict()
    ri = verify_rate_integral(doc)
    assert ri["ok"], ri["failures"]
    contention = attribute_contention(doc)
    assert verify_contention(contention)["ok"]
    rec = reconcile_flow_spans(doc, res.trace)
    assert rec["ok"], rec["failures"]
    # every transfer flow was bound to its causal-trace span
    assert rec["unbound"] == 0
    assert rec["checked"] == doc["n_flows"]
    # the 2-GPU grid actually contends on the shared host bus
    assert contention["total_contention_s"] > 0.0


def test_sort_ledger_is_byte_stable():
    a = canonical_json(_sort().flow_ledger.to_dict())
    b = canonical_json(_sort().flow_ledger.to_dict())
    assert a == b


def test_flow_rate_counter_tracks():
    res = _sort()
    counters = flow_rate_counters(res.flow_ledger.to_dict())
    assert set(counters) == {"link.host_bus.bw_bytes_per_s",
                             "link.pcie.htod.bw_bytes_per_s",
                             "link.pcie.dtoh.bw_bytes_per_s"}
    series = counters["link.host_bus.bw_bytes_per_s"]
    assert series.unit == "bytes/s"
    assert len(series) == len(list(series.samples())) > 0


def test_ledger_is_timeline_neutral():
    """Attaching the ledger never perturbs the simulation: the same
    network scenario completes at bit-identical times with and without
    it (the ledger only reads state and never schedules events)."""
    def run(with_ledger):
        env = Environment()
        net = FlowNetwork(env)
        link = net.add_link("l", 10.0)
        if with_ledger:
            net.ledger = FlowLedger(clock=lambda: env.now,
                                    capacities={"l": 10.0})
        ends = []

        def p(nbytes, delay):
            yield env.timeout(delay)
            yield net.transfer(nbytes, [link])
            ends.append(env.now)

        for spec in ((50.0, 0.0), (30.0, 1.0), (20.0, 1.0)):
            env.process(p(*spec))
        env.run()
        return ends

    assert run(True) == run(False)


def test_reconcile_flags_a_doctored_ledger():
    res = _sort()
    doc = res.flow_ledger.to_dict()
    bound = next(f for f in doc["flows"] if f["span"] is not None)
    bound["end"] += 1.0
    rec = reconcile_flow_spans(doc, res.trace)
    assert not rec["ok"]
    assert any("ends at" in msg for msg in rec["failures"])


@pytest.mark.parametrize("bad", [True, False, 2.9, 2.0, "2"])
def test_bind_span_rejects_bools_and_non_integral_ids(bad):
    env, net, links = _net_with_ledger({"l": 10.0})
    led = net.ledger
    flows = []

    def p():
        flows.append((yield net.transfer(10.0, [links["l"]])))

    env.process(p())
    env.run()
    before = canonical_json(led.to_dict())
    with pytest.raises(TypeError, match="span id must be an integer"):
        led.bind_span(flows[0], bad)
    assert canonical_json(led.to_dict()) == before
    assert led.spans_bound == 0


def test_bind_span_accepts_numpy_integers_and_spans():
    import numpy as np

    from repro.sim.trace import CAT, Trace
    env, net, links = _net_with_ledger({"l": 10.0})
    led = net.ledger
    flows = []

    def p():
        for _ in range(2):
            flows.append((yield net.transfer(10.0, [links["l"]])))

    env.process(p())
    env.run()
    trace = Trace()
    trace.record(CAT.HTOD, "a", 0.0, 1.0)
    trace.record(CAT.HTOD, "b", 1.0, 2.0)
    led.bind_span(flows[0], np.int64(1))
    led.bind_span(flows[1], trace.spans[0])
    assert [f["span"] for f in led.flows] == [1, 0]
    assert type(led.flows[0]["span"]) is int
