"""The dashboard module's public surface and edge cases: the export
list, the empty sweep ledger, and one analysis pass per flows render."""

import io

import pytest

import repro.reporting
from repro.reporting import html


def test_all_lists_every_reexported_dashboard():
    names = [n for n in dir(repro.reporting)
             if n.startswith(("render_", "write_"))
             and getattr(repro.reporting, n).__module__ == html.__name__]
    assert {"render_service_dashboard", "write_service_dashboard"} \
        <= set(names)
    assert set(names) <= set(html.__all__)


def test_empty_ledger_renders_the_empty_state():
    from repro.obs.conformance import conformance_summary
    doc = html.render_dashboard([], conformance_summary([]))
    assert doc.startswith("<!DOCTYPE html>")
    assert "Model-vs-measured gap by category" in doc
    assert "no runs in the ledger" in doc


def test_conformance_cli_renders_an_empty_ledger(tmp_path):
    from repro.cli import main
    ledger = tmp_path / "empty.jsonl"
    ledger.write_text("")
    page = tmp_path / "dash.html"
    out = io.StringIO()
    code = main(["conformance", "--ledger", str(ledger),
                 "--html", str(page)], out=out)
    assert code == 0
    assert "0 runs" in out.getvalue()
    assert "no runs in the ledger" in page.read_text()


@pytest.fixture(scope="module")
def flows_doc():
    from repro import PLATFORM2, HeterogeneousSorter
    res = HeterogeneousSorter(PLATFORM2, n_gpus=2, approach="pipedata",
                              batch_size=250_000,
                              pinned_elements=50_000).sort(n=2_000_000)
    return res.flow_ledger.to_dict()


@pytest.fixture
def analysis_calls(monkeypatch):
    import repro.obs.flows as flows
    calls = {"link_timelines": 0, "attribute_contention": 0}
    for name in calls:
        real = getattr(flows, name)

        def counted(doc, _real=real, _name=name):
            calls[_name] += 1
            return _real(doc)
        monkeypatch.setattr(flows, name, counted)
    return calls


def test_flows_dashboard_runs_each_analysis_once(flows_doc,
                                                 analysis_calls):
    html.render_flows_dashboard(flows_doc)
    assert analysis_calls == {"link_timelines": 1,
                              "attribute_contention": 1}


@pytest.fixture(scope="module")
def tiny_sweep():
    from repro.obs.conformance import conformance_summary
    from repro.obs.sweep import run_sweep, sweep_points
    records = run_sweep(sweep_points("tiny"), model_n=4_000_000)
    return records, conformance_summary(records)


def test_flows_section_runs_each_analysis_once(flows_doc, tiny_sweep,
                                               analysis_calls):
    html.render_dashboard(*tiny_sweep, flows=flows_doc)
    assert analysis_calls == {"link_timelines": 1,
                              "attribute_contention": 1}
