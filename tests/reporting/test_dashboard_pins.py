"""Content pins for every HTML dashboard.

Each deterministic input renders one page.  Two things are pinned per
page: the ordered panel list (``h2``/``h3`` headings and SVG
``aria-label``s, written out literally below) and a SHA-256 over the
page's visible content plus its per-SVG mark counts.

Visible content is every text node, every ``data-tip``, ``aria-label``,
``href`` and ``id`` string, and every ``ok``/``bad`` status class, in
document order.  Inside an SVG the strings are sorted, because the order
of marks there is geometry (paint order), not content.  Markup, styling
and SVG coordinates are free to change; a heading, tick label, tooltip,
table cell, run anchor or the number of marks of any kind in a panel is
not.

Run as a script to print every page's panel list and digest.
"""

from __future__ import annotations

import collections
import hashlib
import json
from html.parser import HTMLParser
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
ARCHIVE = ROOT / "benchmarks" / "results" / "archive.jsonl"
#: The trend pages render the committed archive's first entries, the
#: ones their pins were frozen on: the archive is append-only and grows
#: whenever the golden gate gains a pair, which is new input, not a
#: rendering change.
ARCHIVE_ENTRIES = 22


class DashboardExtract(HTMLParser):
    """Panel list, visible strings and per-SVG mark counts of a page."""

    ATTRS = ("aria-label", "data-tip", "href", "id")

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.panels: list[str] = []
        self.text: list = []
        self.marks: list[dict[str, int]] = []
        self._svg: list[str] | None = None
        self._heading: list[str] | None = None
        self._skip = False

    def _sink(self) -> list:
        return self.text if self._svg is None else self._svg

    def handle_starttag(self, tag, attrs):
        a = dict(attrs)
        if tag in ("style", "script"):
            self._skip = True
        if tag == "svg":
            self._svg = []
            self.marks.append(collections.Counter())
            self.panels.append(f"svg {a.get('aria-label', '')}")
        elif self._svg is not None:
            self.marks[-1][tag] += 1
        if tag in ("h2", "h3"):
            self._heading = [tag]
        for key in self.ATTRS:
            if a.get(key) is not None:
                self._sink().append(f"{key}={a[key]}")
        for status in ("ok", "bad"):
            if status in (a.get("class") or "").split():
                self._sink().append(f"[{status}]")

    def handle_endtag(self, tag):
        if tag in ("style", "script"):
            self._skip = False
        elif tag == "svg" and self._svg is not None:
            self.text.append(sorted(self._svg))
            self.marks[-1] = dict(sorted(self.marks[-1].items()))
            self._svg = None
        elif tag in ("h2", "h3") and self._heading is not None:
            self.panels.append(" ".join(self._heading))
            self._heading = None

    def handle_data(self, data):
        if self._skip:
            return
        s = " ".join(data.split())
        if not s:
            return
        self._sink().append(s)
        if self._heading is not None:
            self._heading.append(s)


def extract(page: str) -> DashboardExtract:
    parser = DashboardExtract()
    parser.feed(page)
    parser.close()
    return parser


def digest(page: str) -> str:
    """SHA-256 over the page's visible strings and per-SVG mark counts."""
    ex = extract(page)
    blob = json.dumps({"text": ex.text, "marks": ex.marks},
                      sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Deterministic inputs
# ---------------------------------------------------------------------------

def _sweep(grid: str):
    from repro.obs.conformance import conformance_summary
    from repro.obs.sweep import run_sweep, sweep_points
    records = run_sweep(sweep_points(grid), model_n=4_000_000)
    return records, conformance_summary(records)


def _memory_doc() -> dict:
    from repro import PLATFORM1, HeterogeneousSorter
    res = HeterogeneousSorter(PLATFORM1, approach="pipedata",
                              batch_size=500_000,
                              pinned_elements=50_000).sort(n=2_000_000)
    return res.memory_ledger.to_dict()


def _flows_doc() -> dict:
    from repro import PLATFORM2, HeterogeneousSorter
    res = HeterogeneousSorter(PLATFORM2, n_gpus=2, approach="pipedata",
                              batch_size=250_000,
                              pinned_elements=50_000).sort(n=2_000_000)
    return res.flow_ledger.to_dict()


def _service_verdict() -> dict:
    from repro.service import ServiceConfig, Tenant, run_service
    tenants = (Tenant(name="gold", priority=2, share=2.0, rate_hz=40.0,
                      n_jobs=2, n_elements=50_000, slo_s=0.5),
               Tenant(name="batch", priority=0, share=0.5, rate_hz=20.0,
                      n_jobs=2, n_elements=100_000))
    cfg = ServiceConfig(seed=3, functional=False, batch_size=20_000,
                        pinned_elements=5_000)
    return run_service(tenants, cfg).verdict


def _trends() -> dict:
    from repro.obs import load_archive, trend_summary
    return trend_summary(load_archive(ARCHIVE)[:ARCHIVE_ENTRIES])


_EMPTY_MEMORY = {"schema": "repro.memory/v1", "pools": {},
                 "balanced": True, "entries": []}


def _conformance(grid: str, sections: bool) -> str:
    from repro.reporting import render_dashboard
    records, summary = _sweep(grid)
    if not sections:
        return render_dashboard(records, summary)
    return render_dashboard(records, summary, trends=_trends(),
                            memory=_memory_doc(), flows=_flows_doc())


PAGES = {
    "conformance-tiny": lambda: _conformance("tiny", False),
    "conformance-tiny-sections": lambda: _conformance("tiny", True),
    "conformance-ci": lambda: _conformance("ci", False),
    "conformance-ci-sections": lambda: _conformance("ci", True),
    "memory": lambda: _render("render_memory_dashboard", _memory_doc(),
                              title="pipedata on PLATFORM1"),
    "memory-empty": lambda: _render("render_memory_dashboard",
                                    _EMPTY_MEMORY),
    "flows": lambda: _render("render_flows_dashboard", _flows_doc(),
                             title="pipedata on PLATFORM2"),
    "service": lambda: _render("render_service_dashboard",
                               _service_verdict(),
                               title="fair-share on PLATFORM1, seed 3"),
    "trends": lambda: _render("render_trend_dashboard", _trends()),
}


def _render(name: str, doc: dict, **kw) -> str:
    import repro.reporting
    return getattr(repro.reporting, name)(doc, **kw)


# ---------------------------------------------------------------------------
# The pins
# ---------------------------------------------------------------------------

FIG11 = [
    "h2 Measured vs. model (Fig. 11)",
    "h3 PLATFORM1|g1|bline",
    "svg measured vs model, PLATFORM1|g1|bline",
    "h3 PLATFORM1|g1|pipedata",
    "svg measured vs model, PLATFORM1|g1|pipedata",
]

FIG8 = [
    "h2 Missing overhead (Fig. 8)",
    "h3 Missing overhead (Fig. 8) — PLATFORM1|g1|bline",
    "svg missing overhead growth",
]

CONF_TAIL = [
    "h2 Gap attribution",
    "h3 Model-vs-measured gap by category",
    "svg residuals by category",
    "h2 Anomalies",
    "h2 Sweep ledger",
    "h2 Per-run critical paths",
]

MEMORY = [
    "h3 Memory occupancy",
    "svg memory occupancy over time",
]

FLOW_CARDS = [
    "h3 host_bus",
    "svg granted bandwidth on host_bus",
    "h3 pcie.dtoh",
    "svg granted bandwidth on pcie.dtoh",
    "h3 pcie.htod",
    "svg granted bandwidth on pcie.htod",
    "h3 Flows in flight",
    "svg flows in flight over time",
]

TREND_CARDS = [
    "h3 makespan_s — gpumerge_2m",
    "svg makespan_s history, gpumerge_2m",
    "h3 elapsed_s — gpumerge_2m",
    "svg elapsed_s history, gpumerge_2m",
    "h3 throughput_el_per_s — gpumerge_2m",
    "svg throughput_el_per_s history, gpumerge_2m",
    "h3 missing_overhead_s — gpumerge_2m",
    "svg missing_overhead_s history, gpumerge_2m",
    "h3 peak_pinned_bytes — gpumerge_2m",
    "svg peak_pinned_bytes history, gpumerge_2m",
    "h3 peak_device_bytes.gpu0 — gpumerge_2m",
    "svg peak_device_bytes.gpu0 history, gpumerge_2m",
    "h3 link_peak_utilization — gpumerge_2m",
    "svg link_peak_utilization history, gpumerge_2m",
    "h3 transfer_contention_s — gpumerge_2m",
    "svg transfer_contention_s history, gpumerge_2m",
    "h3 elapsed_s — serve_fixed_levels",
    "svg elapsed_s history, serve_fixed_levels",
    "h3 elapsed_s — serve_strict_priority",
    "svg elapsed_s history, serve_strict_priority",
    "h3 makespan_s — PLATFORM1-pipedata-g1-s2-n4000000",
    "svg makespan_s history, PLATFORM1-pipedata-g1-s2-n4000000",
    "h3 elapsed_s — PLATFORM1-pipedata-g1-s2-n4000000",
    "svg elapsed_s history, PLATFORM1-pipedata-g1-s2-n4000000",
    "h3 throughput_el_per_s — PLATFORM1-pipedata-g1-s2-n4000000",
    "svg throughput_el_per_s history, PLATFORM1-pipedata-g1-s2-n4000000",
    "h3 missing_overhead_s — PLATFORM1-pipedata-g1-s2-n4000000",
    "svg missing_overhead_s history, PLATFORM1-pipedata-g1-s2-n4000000",
    "h3 model_gap_s — PLATFORM1-pipedata-g1-s2-n4000000",
    "svg model_gap_s history, PLATFORM1-pipedata-g1-s2-n4000000",
    "h3 makespan_s — bline_1m",
    "svg makespan_s history, bline_1m",
    "h3 elapsed_s — bline_1m",
    "svg elapsed_s history, bline_1m",
    "h3 throughput_el_per_s — bline_1m",
    "svg throughput_el_per_s history, bline_1m",
    "h3 missing_overhead_s — bline_1m",
    "svg missing_overhead_s history, bline_1m",
    "h3 peak_pinned_bytes — bline_1m",
    "svg peak_pinned_bytes history, bline_1m",
    "h3 peak_device_bytes.gpu0 — bline_1m",
    "svg peak_device_bytes.gpu0 history, bline_1m",
    "h3 link_peak_utilization — bline_1m",
    "svg link_peak_utilization history, bline_1m",
    "h3 transfer_contention_s — bline_1m",
    "svg transfer_contention_s history, bline_1m",
    "h3 elapsed_s — serve_fair_share",
    "svg elapsed_s history, serve_fair_share",
    "h3 makespan_s — PLATFORM1-bline-g1-s1-n4000000",
    "svg makespan_s history, PLATFORM1-bline-g1-s1-n4000000",
    "h3 elapsed_s — PLATFORM1-bline-g1-s1-n4000000",
    "svg elapsed_s history, PLATFORM1-bline-g1-s1-n4000000",
    "h3 throughput_el_per_s — PLATFORM1-bline-g1-s1-n4000000",
    "svg throughput_el_per_s history, PLATFORM1-bline-g1-s1-n4000000",
    "h3 missing_overhead_s — PLATFORM1-bline-g1-s1-n4000000",
    "svg missing_overhead_s history, PLATFORM1-bline-g1-s1-n4000000",
    "h3 model_gap_s — PLATFORM1-bline-g1-s1-n4000000",
    "svg model_gap_s history, PLATFORM1-bline-g1-s1-n4000000",
    "h3 link_peak_utilization — gpumerge_2m",
    "svg link_peak_utilization history, gpumerge_2m",
    "h3 transfer_contention_s — gpumerge_2m",
    "svg transfer_contention_s history, gpumerge_2m",
    "h3 makespan_s — PLATFORM1-pipedata-g1-s2-n2000000",
    "svg makespan_s history, PLATFORM1-pipedata-g1-s2-n2000000",
    "h3 elapsed_s — PLATFORM1-pipedata-g1-s2-n2000000",
    "svg elapsed_s history, PLATFORM1-pipedata-g1-s2-n2000000",
    "h3 throughput_el_per_s — PLATFORM1-pipedata-g1-s2-n2000000",
    "svg throughput_el_per_s history, PLATFORM1-pipedata-g1-s2-n2000000",
    "h3 missing_overhead_s — PLATFORM1-pipedata-g1-s2-n2000000",
    "svg missing_overhead_s history, PLATFORM1-pipedata-g1-s2-n2000000",
    "h3 model_gap_s — PLATFORM1-pipedata-g1-s2-n2000000",
    "svg model_gap_s history, PLATFORM1-pipedata-g1-s2-n2000000",
    "h3 link_peak_utilization — pipemerge_2m",
    "svg link_peak_utilization history, pipemerge_2m",
    "h3 transfer_contention_s — pipemerge_2m",
    "svg transfer_contention_s history, pipemerge_2m",
    "h3 peak_pinned_bytes — pipemerge_2m",
    "svg peak_pinned_bytes history, pipemerge_2m",
    "h3 peak_device_bytes.gpu0 — pipemerge_2m",
    "svg peak_device_bytes.gpu0 history, pipemerge_2m",
    "h3 peak_pinned_bytes — pipedata_2gpu_2m",
    "svg peak_pinned_bytes history, pipedata_2gpu_2m",
    "h3 peak_device_bytes.gpu0 — pipedata_2gpu_2m",
    "svg peak_device_bytes.gpu0 history, pipedata_2gpu_2m",
    "h3 peak_device_bytes.gpu1 — pipedata_2gpu_2m",
    "svg peak_device_bytes.gpu1 history, pipedata_2gpu_2m",
    "h3 peak_pinned_bytes — bline_1m",
    "svg peak_pinned_bytes history, bline_1m",
    "h3 peak_device_bytes.gpu0 — bline_1m",
    "svg peak_device_bytes.gpu0 history, bline_1m",
    "h3 link_peak_utilization — pipedata_2gpu_2m",
    "svg link_peak_utilization history, pipedata_2gpu_2m",
    "h3 transfer_contention_s — pipedata_2gpu_2m",
    "svg transfer_contention_s history, pipedata_2gpu_2m",
    "h3 makespan_s — PLATFORM1-bline-g1-s1-n2000000",
    "svg makespan_s history, PLATFORM1-bline-g1-s1-n2000000",
    "h3 elapsed_s — PLATFORM1-bline-g1-s1-n2000000",
    "svg elapsed_s history, PLATFORM1-bline-g1-s1-n2000000",
    "h3 throughput_el_per_s — PLATFORM1-bline-g1-s1-n2000000",
    "svg throughput_el_per_s history, PLATFORM1-bline-g1-s1-n2000000",
    "h3 missing_overhead_s — PLATFORM1-bline-g1-s1-n2000000",
    "svg missing_overhead_s history, PLATFORM1-bline-g1-s1-n2000000",
    "h3 model_gap_s — PLATFORM1-bline-g1-s1-n2000000",
    "svg model_gap_s history, PLATFORM1-bline-g1-s1-n2000000",
    "h3 elapsed_s — serve_max_min",
    "svg elapsed_s history, serve_max_min",
    "h3 link_peak_utilization — bline_1m",
    "svg link_peak_utilization history, bline_1m",
    "h3 transfer_contention_s — bline_1m",
    "svg transfer_contention_s history, bline_1m",
    "h3 makespan_s — PLATFORM1-pipedata-g1-s2-n1000000",
    "svg makespan_s history, PLATFORM1-pipedata-g1-s2-n1000000",
    "h3 elapsed_s — PLATFORM1-pipedata-g1-s2-n1000000",
    "svg elapsed_s history, PLATFORM1-pipedata-g1-s2-n1000000",
    "h3 throughput_el_per_s — PLATFORM1-pipedata-g1-s2-n1000000",
    "svg throughput_el_per_s history, PLATFORM1-pipedata-g1-s2-n1000000",
    "h3 missing_overhead_s — PLATFORM1-pipedata-g1-s2-n1000000",
    "svg missing_overhead_s history, PLATFORM1-pipedata-g1-s2-n1000000",
    "h3 model_gap_s — PLATFORM1-pipedata-g1-s2-n1000000",
    "svg model_gap_s history, PLATFORM1-pipedata-g1-s2-n1000000",
    "h3 makespan_s — PLATFORM1-bline-g1-s1-n1000000",
    "svg makespan_s history, PLATFORM1-bline-g1-s1-n1000000",
    "h3 elapsed_s — PLATFORM1-bline-g1-s1-n1000000",
    "svg elapsed_s history, PLATFORM1-bline-g1-s1-n1000000",
    "h3 throughput_el_per_s — PLATFORM1-bline-g1-s1-n1000000",
    "svg throughput_el_per_s history, PLATFORM1-bline-g1-s1-n1000000",
    "h3 missing_overhead_s — PLATFORM1-bline-g1-s1-n1000000",
    "svg missing_overhead_s history, PLATFORM1-bline-g1-s1-n1000000",
    "h3 model_gap_s — PLATFORM1-bline-g1-s1-n1000000",
    "svg model_gap_s history, PLATFORM1-bline-g1-s1-n1000000",
    "h3 makespan_s — pipemerge_2m",
    "svg makespan_s history, pipemerge_2m",
    "h3 elapsed_s — pipemerge_2m",
    "svg elapsed_s history, pipemerge_2m",
    "h3 throughput_el_per_s — pipemerge_2m",
    "svg throughput_el_per_s history, pipemerge_2m",
    "h3 missing_overhead_s — pipemerge_2m",
    "svg missing_overhead_s history, pipemerge_2m",
    "h3 peak_pinned_bytes — pipemerge_2m",
    "svg peak_pinned_bytes history, pipemerge_2m",
    "h3 peak_device_bytes.gpu0 — pipemerge_2m",
    "svg peak_device_bytes.gpu0 history, pipemerge_2m",
    "h3 link_peak_utilization — pipemerge_2m",
    "svg link_peak_utilization history, pipemerge_2m",
    "h3 transfer_contention_s — pipemerge_2m",
    "svg transfer_contention_s history, pipemerge_2m",
]

_SECTIONS = (["h2 Memory occupancy", *MEMORY, "h2 Interconnect occupancy",
              *FLOW_CARDS, "h2 Links", "h2 Top contended flows",
              "h2 Performance over time", *TREND_CARDS,
              "h2 Series overview"])

PANELS = {
    "conformance-tiny": FIG11 + CONF_TAIL,
    "conformance-tiny-sections": FIG11 + CONF_TAIL + _SECTIONS,
    "conformance-ci": FIG11 + FIG8 + CONF_TAIL,
    "conformance-ci-sections": FIG11 + FIG8 + CONF_TAIL + _SECTIONS,
    "memory": ["h2 Occupancy", *MEMORY, "h2 Pools"],
    "memory-empty": ["h2 Occupancy", "h3 Memory occupancy", "h2 Pools"],
    "flows": ["h2 Link occupancy", *FLOW_CARDS, "h2 Links",
              "h2 Top contended flows"],
    "service": ["h2 Job latencies", "h3 Per-tenant job latencies",
                "svg per-tenant job latency timeline", "h2 Tenants"],
    "trends": ["h2 Metric history", *TREND_CARDS, "h2 Series overview"],
}

DIGESTS = {
    "conformance-ci":
        "6230338830e0c05adbbadc7af16e430c893a802e9fe83ce51cc09081a3b42c2b",
    "conformance-ci-sections":
        "f4f1ee9f47f8b51fad3d8e124e81810f7886a1b8f55b2561719f5a5fa3c2e452",
    "conformance-tiny":
        "c0811eb487ce6b177f93cfc049cbed497972d078de8cb559449a7f90e50a1472",
    "conformance-tiny-sections":
        "f5beb215fbe9c939f4dad197158df45fc03ec8d1f0c85767fdba46fbbd8d6631",
    "flows":
        "0e869d1f83ba3d17e2e2087bde4c4ca23a22d4efd45fa888eb0fd9cfba1935c3",
    "memory":
        "b2031300fdadb5a6e75088ef45af0da00a1f97755718bd374d7fab8d773070fb",
    "memory-empty":
        "6a9b487d6728fdd03ef2d0a2c3df8690ebf0c49652c5f1d1a618bfe0cdca00cc",
    "service":
        "d2daa234af3fff501172efb30afa6bfd70a3f31313684f54446e3b16f46109fd",
    "trends":
        "79df64a0234b5caf2adebe2ef6ee4986e196c5f6e800ef9f988a45d9f226a0c5",
}


@pytest.mark.parametrize("name", sorted(PAGES))
def test_dashboard_panel_list_is_pinned(name):
    assert extract(PAGES[name]()).panels == PANELS[name]


@pytest.mark.parametrize("name", sorted(PAGES))
def test_dashboard_content_is_pinned(name):
    assert digest(PAGES[name]()) == DIGESTS[name]


if __name__ == "__main__":
    for name in sorted(PAGES):
        page = PAGES[name]()
        print(f"{name}  {digest(page)}")
        for panel in extract(page).panels:
            print(f"    {panel}")
