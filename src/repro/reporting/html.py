"""Self-contained HTML dashboard for a sweep ledger (inline SVG, no
external dependencies).

:func:`render_dashboard` turns ledger records plus their
:func:`repro.obs.conformance.conformance_summary` into one HTML file a
browser can open offline:

* stat tiles (runs, groups, anomalies, mean model/measured);
* a Fig. 11-style measured-vs-model scatter per (platform, n_gpus,
  approach) group, with the fitted line, the lower-bound model line and
  -- where the paper reports one -- the paper's slope as a reference;
* a Fig. 8-style missing-overhead chart (related-work accounting vs.
  full end-to-end, gap shaded);
* residual-by-category stacked bars (each run's model-vs-measured gap,
  attributed along the causal critical path -- segments sum exactly to
  the gap);
* an anomaly table linking to per-run critical-path details, and a full
  ledger table as the accessible table-view twin of every chart.

Charts follow a small fixed spec: thin marks, hairline solid gridlines,
a legend for multi-series panels, hover tooltips (enhance, never gate --
every value is also in the tables), text in ink tokens rather than
series colors, and a dark mode selected via ``prefers-color-scheme``.
The categorical palette and its slot order are CVD-validated; values are
documented in the palette table below.
"""

from __future__ import annotations

import html as _html
import typing as _t

__all__ = ["render_dashboard", "write_dashboard",
           "render_trend_dashboard", "write_trend_dashboard",
           "render_memory_dashboard", "write_memory_dashboard",
           "render_flows_dashboard", "write_flows_dashboard"]

# Categorical palette (validated slot order; light / dark pairs).
_SERIES_LIGHT = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948"]
_SERIES_DARK = ["#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767"]

#: Fixed category -> palette-slot order for the residual stacks (the
#: stack order is also the adjacency the palette was validated for).
_STACK_CATEGORIES = ["GPUSort", "HtoD", "DtoH", "MCpy", "Sync",
                     "PinnedAlloc", "(wait)"]

_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --good: #0ca30c; --critical: #d03b3b;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  background: var(--page); color: var(--ink-1);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --good: #0ca30c; --critical: #d03b3b;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 8px; }
.viz-root .sub { color: var(--ink-2); margin: 0 0 16px; }
.viz-root .note { color: var(--ink-3); font-size: 12px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; padding: 10px 16px; min-width: 120px; }
.tile .label { font-size: 12px; color: var(--ink-2); }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .value.bad { color: var(--critical); }
.tile .value.ok { color: var(--good); }
.cards { display: flex; flex-wrap: wrap; gap: 16px; }
.card { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; padding: 12px 14px; }
.card h3 { font-size: 13px; margin: 0 0 2px; }
.card .sub { font-size: 12px; margin: 0 0 6px; }
.legend { display: flex; flex-wrap: wrap; gap: 12px; font-size: 12px;
          color: var(--ink-2); margin: 6px 0; align-items: center; }
.legend .key { display: inline-flex; align-items: center; gap: 5px; }
.legend .swatch { width: 10px; height: 10px; border-radius: 2px;
                  display: inline-block; }
.legend .linekey { width: 14px; height: 2px; display: inline-block; }
table.viz { border-collapse: collapse; background: var(--surface-1);
            border: 1px solid var(--border); border-radius: 8px;
            font-size: 13px; }
table.viz th, table.viz td { padding: 5px 10px; text-align: right;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
table.viz th { color: var(--ink-2); font-weight: 600; }
table.viz td.l, table.viz th.l { text-align: left;
  font-variant-numeric: normal; }
.chip { display: inline-flex; align-items: center; gap: 4px;
        font-size: 12px; font-weight: 600; }
.chip.bad { color: var(--critical); }
.chip.ok { color: var(--good); }
.runs details { margin: 4px 0; }
.runs summary { cursor: pointer; color: var(--ink-2); }
svg text { fill: var(--ink-3); font: 11px system-ui, sans-serif; }
svg text.lab { fill: var(--ink-2); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--axis); stroke-width: 1; }
#tip { position: fixed; pointer-events: none; display: none;
  background: var(--surface-1); color: var(--ink-1);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 6px 9px; font-size: 12px; white-space: pre-line;
  box-shadow: 0 2px 8px rgba(0,0,0,0.18); z-index: 10; max-width: 320px; }
[data-tip] { cursor: default; }
"""

_TIP_JS = """
(function () {
  var tip = document.getElementById('tip');
  function show(el, x, y) {
    tip.textContent = el.getAttribute('data-tip');
    tip.style.display = 'block';
    var pad = 14, w = tip.offsetWidth, h = tip.offsetHeight;
    var left = Math.min(x + pad, window.innerWidth - w - 6);
    var top = y + pad + h > window.innerHeight ? y - h - 6 : y + pad;
    tip.style.left = left + 'px'; tip.style.top = top + 'px';
  }
  function hide() { tip.style.display = 'none'; }
  document.querySelectorAll('[data-tip]').forEach(function (el) {
    el.addEventListener('pointermove', function (ev) {
      show(el, ev.clientX, ev.clientY);
    });
    el.addEventListener('pointerleave', hide);
    el.addEventListener('focus', function () {
      var r = el.getBoundingClientRect();
      show(el, r.left + r.width / 2, r.top);
    });
    el.addEventListener('blur', hide);
  });
})();
"""


def _esc(s) -> str:
    return _html.escape(str(s), quote=True)


def _fmt_n(n: float) -> str:
    for unit, div in (("B", 1e9), ("M", 1e6), ("k", 1e3)):
        if abs(n) >= div:
            v = n / div
            return (f"{v:.0f}{unit}" if float(v).is_integer()
                    else f"{v:.3g}{unit}")
    return f"{n:g}"


def _fmt_s(t: float) -> str:
    if abs(t) >= 1:
        return f"{t:.3f} s"
    return f"{t * 1e3:.2f} ms"


def _fmt_b(nbytes: float) -> str:
    for unit, div in (("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if abs(nbytes) >= div:
            return f"{nbytes / div:.3g} {unit}"
    return f"{nbytes:g} B"


def _nice_ticks(lo: float, hi: float, n: int = 4) -> list[float]:
    """<= n+2 round tick positions covering [lo, hi] (1/2/5 ladder)."""
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / max(1, n)
    mag = 10 ** __import__("math").floor(__import__("math").log10(raw))
    step = next((m * mag for m in (1, 2, 5, 10) if m * mag >= raw),
                10 * mag)
    t = __import__("math").ceil(lo / step) * step
    out = []
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out or [lo]


class _Scale:
    """Linear data -> pixel mapping for one axis."""

    def __init__(self, lo: float, hi: float, a: float, b: float) -> None:
        self.lo, self.hi, self.a, self.b = lo, hi, a, b

    def __call__(self, v: float) -> float:
        if self.hi <= self.lo:
            return self.a
        f = (v - self.lo) / (self.hi - self.lo)
        return self.a + f * (self.b - self.a)


def _frame(sx: _Scale, sy: _Scale, *, x_time: bool = False,
           y_time: bool = True) -> list[str]:
    """Gridlines, axes and tick labels shared by every panel."""
    out = []
    for t in _nice_ticks(sy.lo, sy.hi):
        y = sy(t)
        out.append(f'<line class="grid" x1="{sx.a:.1f}" y1="{y:.1f}" '
                   f'x2="{sx.b:.1f}" y2="{y:.1f}"/>')
        lab = _fmt_s(t) if y_time else _fmt_n(t)
        out.append(f'<text x="{sx.a - 6:.1f}" y="{y + 3.5:.1f}" '
                   f'text-anchor="end">{lab}</text>')
    for t in _nice_ticks(sx.lo, sx.hi):
        x = sx(t)
        lab = _fmt_s(t) if x_time else _fmt_n(t)
        out.append(f'<text x="{x:.1f}" y="{sy.a + 16:.1f}" '
                   f'text-anchor="middle">{lab}</text>')
    out.append(f'<line class="axis" x1="{sx.a:.1f}" y1="{sy.a:.1f}" '
               f'x2="{sx.b:.1f}" y2="{sy.a:.1f}"/>')
    out.append(f'<line class="axis" x1="{sx.a:.1f}" y1="{sy.a:.1f}" '
               f'x2="{sx.a:.1f}" y2="{sy.b:.1f}"/>')
    return out


def _svg(width: int, height: int, body: _t.Iterable[str],
         label: str) -> str:
    return (f'<svg role="img" aria-label="{_esc(label)}" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            + "".join(body) + "</svg>")


def _poly(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{x:.1f},{y:.1f}" for x, y in points)


def _page(title: str, heading: str, sub: str,
          tiles: _t.Iterable[tuple[str, str, str]], body: str) -> str:
    """The page shell every dashboard shares: head and stylesheet, the
    heading and its sub line, the ``(label, value, class)`` stat tiles,
    ``body``, then the tooltip element and its script."""
    tile_html = "".join(
        f'<div class="tile"><div class="label">{_esc(lab)}</div>'
        f'<div class="value {cls}">{_esc(val)}</div></div>'
        for lab, val, cls in tiles)
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{title}</title>
<meta name="viewport" content="width=device-width, initial-scale=1">
<style>{_CSS}</style></head>
<body class="viz-root">
<h1>{heading}</h1>
<p class="sub">{sub}</p>
<div class="tiles">{tile_html}</div>
{body}
<div id="tip" role="status"></div>
<script>{_TIP_JS}</script>
</body></html>
"""


def _write(path, page: str) -> None:
    with open(path, "w") as fh:
        fh.write(page)


# ---------------------------------------------------------------------------
# Panels
# ---------------------------------------------------------------------------

def _scatter_panel(key: str, group: dict, records: list[dict]) -> str:
    """Fig. 11-style measured vs. model scatter for one fit group."""
    from repro.obs.conformance import group_key
    recs = sorted((r for r in records if group_key(r) == key),
                  key=lambda r: r["conformance"]["n"])
    pts = [(r["conformance"]["n"], r["conformance"]["measured_s"], r)
           for r in recs]
    if not pts:
        return ""
    w, h, ml, mr, mt, mb = 380, 240, 64, 14, 14, 30
    nmax = max(n for n, _, _ in pts) * 1.05
    slope, icpt = group["fitted_slope"], group["fitted_intercept"]
    model_slope = group["model_slope"]
    paper_slope = group.get("paper_slope")
    ymax = max([t for _, t, _ in pts]
               + [icpt + slope * nmax, model_slope * nmax]
               + ([paper_slope * nmax] if paper_slope else [])) * 1.08
    sx = _Scale(0, nmax, ml, w - mr)
    sy = _Scale(0, ymax, h - mb, mt)
    body = _frame(sx, sy)
    # Reference/overlay lines: paper (muted), model (slot 3), fit (slot 2).
    if paper_slope:
        body.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" '
                    f'x2="{sx(nmax):.1f}" y2="{sy(paper_slope * nmax):.1f}"'
                    f' stroke="var(--ink-3)" stroke-width="1.5"/>')
    body.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" '
                f'x2="{sx(nmax):.1f}" y2="{sy(model_slope * nmax):.1f}" '
                f'stroke="var(--s3)" stroke-width="2" '
                f'stroke-linecap="round"/>')
    body.append(f'<line x1="{sx(0):.1f}" y1="{sy(icpt):.1f}" '
                f'x2="{sx(nmax):.1f}" y2="{sy(icpt + slope * nmax):.1f}" '
                f'stroke="var(--s2)" stroke-width="2" '
                f'stroke-linecap="round"/>')
    anom_ids = {a["run_id"] for a in group["anomalies"]}
    for n, t, rec in pts:
        c = rec["conformance"]
        tip = (f"{rec['run_id']}\nmeasured {_fmt_s(t)}\n"
               f"model {_fmt_s(c['predicted_s'])}\n"
               f"gap {_fmt_s(c['gap_s'])}  "
               f"model/measured {c['slowdown']:.3f}")
        ring = ('stroke="var(--critical)" stroke-width="2"'
                if rec["run_id"] in anom_ids
                else 'stroke="var(--surface-1)" stroke-width="2"')
        body.append(
            f'<circle cx="{sx(n):.1f}" cy="{sy(t):.1f}" r="4.5" '
            f'fill="var(--s1)" {ring} tabindex="0" '
            f'data-tip="{_esc(tip)}">'
            f'<title>{_esc(rec["run_id"])}</title></circle>')
    paper_txt = (f" &middot; paper slope {paper_slope * 1e9:.3f} ns/el"
                 if paper_slope else "")
    sub = (f"fit {slope * 1e9:.3f} ns/el, R&sup2; {group['r2']:.4f} "
           f"&middot; model {model_slope * 1e9:.3f} ns/el{paper_txt}")
    return (f'<div class="card"><h3>{_esc(key)}</h3>'
            f'<p class="sub">{sub}</p>'
            + _svg(w, h, body, f"measured vs model, {key}")
            + "</div>")


def _fig8_panel(records: list[dict]) -> str:
    """Missing-overhead growth: full end-to-end vs. related-work total,
    gap shaded (the Fig. 8 methodology) for the first blocking group
    with enough sizes."""
    from repro.obs.conformance import group_key
    groups: dict[str, list[dict]] = {}
    for r in records:
        if r["point"]["approach"] in ("bline", "blinemulti"):
            groups.setdefault(group_key(r), []).append(r)
    key = next((k for k in sorted(groups) if len(groups[k]) >= 2), None)
    if key is None:
        return ""
    recs = sorted(groups[key], key=lambda r: r["point"]["n"])
    xs = [r["point"]["n"] for r in recs]
    full = [r["measured"]["elapsed_s"] for r in recs]
    rel = [r["measured"]["related_work_s"] for r in recs]
    w, h, ml, mr, mt, mb = 520, 250, 64, 14, 14, 30
    sx = _Scale(0, max(xs) * 1.05, ml, w - mr)
    sy = _Scale(0, max(full) * 1.1, h - mb, mt)
    body = _frame(sx, sy)
    band = ([(sx(n), sy(t)) for n, t in zip(xs, full)]
            + [(sx(n), sy(t)) for n, t in zip(reversed(xs), reversed(rel))])
    body.append(f'<polygon points="{_poly(band)}" fill="var(--s1)" '
                f'opacity="0.10"/>')
    for series, slot in ((full, 1), (rel, 2)):
        line = [(sx(n), sy(t)) for n, t in zip(xs, series)]
        body.append(f'<polyline points="{_poly(line)}" fill="none" '
                    f'stroke="var(--s{slot})" stroke-width="2" '
                    f'stroke-linejoin="round" stroke-linecap="round"/>')
    for r, n, f_t, r_t in zip(recs, xs, full, rel):
        gap = r["measured"]["missing_overhead_s"]
        tip = (f"{r['run_id']}\nfull end-to-end {_fmt_s(f_t)}\n"
               f"related-work total {_fmt_s(r_t)}\n"
               f"missing overhead {_fmt_s(gap)} "
               f"({gap / f_t:.0%} of the run)" if f_t > 0 else r["run_id"])
        for t, slot in ((f_t, 1), (r_t, 2)):
            body.append(
                f'<circle cx="{sx(n):.1f}" cy="{sy(t):.1f}" r="4" '
                f'fill="var(--s{slot})" stroke="var(--surface-1)" '
                f'stroke-width="2" tabindex="0" data-tip="{_esc(tip)}"/>')
    mid_i = len(xs) // 2
    gy = (sy(full[mid_i]) + sy(rel[mid_i])) / 2
    body.append(f'<text class="lab" x="{sx(xs[mid_i]) + 8:.1f}" '
                f'y="{gy:.1f}">missing overhead</text>')
    legend = ('<div class="legend">'
              '<span class="key"><span class="linekey" '
              'style="background:var(--s1)"></span>full end-to-end</span>'
              '<span class="key"><span class="linekey" '
              'style="background:var(--s2)"></span>related-work accounting '
              '(HtoD + DtoH + GPUSort)</span></div>')
    return (f'<div class="card"><h3>Missing overhead (Fig. 8) '
            f'&mdash; {_esc(key)}</h3>{legend}'
            + _svg(w, h, body, "missing overhead growth") + "</div>")


def _residual_panel(records: list[dict]) -> str:
    """Stacked per-run residual bars: the model-vs-measured gap split by
    category along the critical path (segments sum exactly to the gap)."""
    cats = list(_STACK_CATEGORIES)
    extra = sorted({c for r in records
                    for c in r["conformance"]["residuals"]
                    if c not in cats})
    cats += extra
    cats = cats[:8]            # palette slots; overflow folds below
    runs = list(records)
    bw, gap_px = 22, 14
    w = max(320, 70 + len(runs) * (bw + gap_px))
    h, ml, mt, mb = 260, 64, 14, 64
    lo = min(0.0, min(sum(v for v in r["conformance"]["residuals"]
                          .values() if v < 0) for r in runs))
    hi = max(0.0, max(sum(v for v in r["conformance"]["residuals"]
                          .values() if v > 0) for r in runs))
    sy = _Scale(lo, hi * 1.05 if hi else 1.0, h - mb, mt)
    body = []
    for t in _nice_ticks(sy.lo, sy.hi):
        y = sy(t)
        body.append(f'<line class="grid" x1="{ml}" y1="{y:.1f}" '
                    f'x2="{w - 10}" y2="{y:.1f}"/>')
        body.append(f'<text x="{ml - 6}" y="{y + 3.5:.1f}" '
                    f'text-anchor="end">{_fmt_s(t)}</text>')
    y0 = sy(0.0)
    body.append(f'<line class="axis" x1="{ml}" y1="{y0:.1f}" '
                f'x2="{w - 10}" y2="{y0:.1f}"/>')
    for i, rec in enumerate(runs):
        x = ml + 10 + i * (bw + gap_px)
        res = rec["conformance"]["residuals"]
        folded = dict.fromkeys(cats, 0.0)
        for c, v in res.items():
            folded[c if c in cats else cats[-1]] = \
                folded.get(c if c in cats else cats[-1], 0.0) + v
        up = down = 0.0
        for ci, cat in enumerate(cats):
            v = folded.get(cat, 0.0)
            if v == 0.0:
                continue
            if v > 0:
                y_top, y_bot = sy(up + v), sy(up)
                up += v
            else:
                y_top, y_bot = sy(down), sy(down + v)
                down += v
            hh = max(0.0, y_bot - y_top)
            inset = 1 if hh > 3 else 0
            tip = (f"{rec['run_id']}\n{cat}: {_fmt_s(v)} of "
                   f"{_fmt_s(rec['conformance']['gap_s'])} gap")
            body.append(
                f'<rect x="{x}" y="{y_top + inset:.1f}" width="{bw}" '
                f'height="{max(0.5, hh - 2 * inset):.1f}" rx="1.5" '
                f'fill="var(--s{ci + 1})" tabindex="0" '
                f'data-tip="{_esc(tip)}"/>')
        label = f"{rec['point']['approach']} {_fmt_n(rec['point']['n'])}"
        body.append(
            f'<text x="{x + bw / 2:.1f}" y="{h - mb + 14}" '
            f'text-anchor="end" transform="rotate(-35 {x + bw / 2:.1f} '
            f'{h - mb + 14})">{_esc(label)}</text>')
    legend = '<div class="legend">' + "".join(
        f'<span class="key"><span class="swatch" '
        f'style="background:var(--s{i + 1})"></span>{_esc(c)}</span>'
        for i, c in enumerate(cats)) + "</div>"
    return ('<div class="card"><h3>Model-vs-measured gap by category'
            '</h3><p class="sub">each bar is one run&rsquo;s gap to the '
            'lower-bound model, attributed along the causal critical '
            'path; segments sum exactly to the gap</p>'
            + legend + _svg(w, h, body, "residuals by category")
            + "</div>")


def _anomaly_table(summary: dict) -> str:
    anomalies = summary.get("anomalies", [])
    if not anomalies:
        return ('<p><span class="chip ok">&#10003; no anomalies</span> '
                '<span class="note">every run within '
                f'{summary.get("rel_tolerance", 0):.0%} of its group '
                'fit (z-threshold '
                f'{summary.get("z_threshold", 0):g})</span></p>')
    rows = []
    for a in anomalies:
        rid = _esc(a["run_id"])
        rows.append(
            "<tr>"
            f'<td class="l"><a href="#run-{rid}">{rid}</a></td>'
            f'<td class="l">{_esc(a["group"])}</td>'
            f'<td>{_fmt_n(a["n"])}</td>'
            f'<td>{_fmt_s(a["measured_s"])}</td>'
            f'<td>{_fmt_s(a["expected_s"])}</td>'
            f'<td>{a["deviation_s"] / a["expected_s"] * 100:+.1f}%</td>'
            f'<td>{a["z"]:+.2f}</td>'
            f'<td class="l"><span class="chip bad">&#9888; '
            f'{_esc(", ".join(a["flags"]))}</span></td></tr>')
    return ('<table class="viz"><thead><tr>'
            '<th class="l">run</th><th class="l">group</th><th>n</th>'
            '<th>measured</th><th>fit expects</th><th>deviation</th>'
            '<th>z</th><th class="l">flags</th></tr></thead><tbody>'
            + "".join(rows) + "</tbody></table>")


def _ledger_table(records: list[dict]) -> str:
    from repro.obs.conformance import group_key
    rows = []
    for r in records:
        c = r["conformance"]
        rid = _esc(r["run_id"])
        rows.append(
            "<tr>"
            f'<td class="l"><a href="#run-{rid}">{rid}</a></td>'
            f'<td class="l">{_esc(group_key(r))}</td>'
            f'<td>{_fmt_n(r["point"]["n"])}</td>'
            f'<td>{_fmt_s(c["measured_s"])}</td>'
            f'<td>{_fmt_s(c["predicted_s"])}</td>'
            f'<td>{_fmt_s(c["gap_s"])}</td>'
            f'<td>{c["slowdown"]:.3f}</td>'
            f'<td>{_fmt_s(r["measured"]["missing_overhead_s"])}</td>'
            "</tr>")
    return ('<table class="viz"><thead><tr>'
            '<th class="l">run</th><th class="l">group</th><th>n</th>'
            '<th>measured</th><th>model</th><th>gap</th>'
            '<th>model/measured</th><th>missing overhead</th>'
            '</tr></thead><tbody>' + "".join(rows) + "</tbody></table>")


def _run_details(records: list[dict]) -> str:
    blocks = []
    for r in records:
        rid = _esc(r["run_id"])
        cp = r["report"]["critical_path"]
        res = r["conformance"]["residuals"]
        cp_rows = "".join(
            f'<tr><td class="l">{_esc(c)}</td><td>{_fmt_s(v)}</td>'
            f'<td>{_fmt_s(res.get(c, 0.0))}</td></tr>'
            for c, v in cp["by_category"].items())
        blocks.append(
            f'<details id="run-{rid}"><summary>{rid} &mdash; critical '
            f'path {cp["n_spans"]} spans, wait {_fmt_s(cp["wait"])}'
            '</summary>'
            '<table class="viz"><thead><tr><th class="l">category</th>'
            '<th>on critical path</th><th>gap attribution</th></tr>'
            f'</thead><tbody>{cp_rows}</tbody></table></details>')
    return '<div class="runs">' + "".join(blocks) + "</div>"


def _paper_band_note(summary: dict) -> str:
    bands = summary.get("paper_bands", {})
    slope_band = bands.get("fig11_slope_rel", {})
    fig7 = bands.get("fig7_transfer_rel", {})
    parts = [
        "documented reproduction bands: "
        + ", ".join(f"Fig. 11 slope ({g} GPU) &plusmn;{tol:.0%}"
                    for g, tol in sorted(slope_band.items()))
        + "; "
        + ", ".join(f"Fig. 7 {k.split('_')[0]} &plusmn;{tol:.0%}"
                    for k, tol in sorted(fig7.items()))
    ]
    for key, g in summary.get("groups", {}).items():
        if g.get("model_vs_paper"):
            parts.append(f"{_esc(key)}: model slope is "
                         f"{g['model_vs_paper']:.3f}&times; the "
                         "paper&rsquo;s")
    return ('<p class="note">' + " &middot; ".join(parts) +
            " (asserted by tests/model/test_paper_band.py)</p>")


# ---------------------------------------------------------------------------
# Memory observatory panels (repro.memory/v1 ledger documents)
# ---------------------------------------------------------------------------

def _memory_pool_order(pools: _t.Mapping[str, dict]) -> list[str]:
    return sorted(pools, key=lambda p: (p == "pinned", p))


def _memory_panel(doc: dict) -> str:
    """Stacked occupancy-over-time SVG for one ``repro.memory/v1``
    ledger: one band per pool (device pools first, pinned on top) with a
    dashed high-watermark line per pool."""
    entries = doc.get("entries", [])
    pools = doc.get("pools", {})
    order = _memory_pool_order(pools)
    if not entries or not order:
        return ('<div class="card"><h3>Memory occupancy</h3>'
                '<p class="note">empty ledger &mdash; no allocations '
                'recorded</p></div>')
    times = sorted({e["t"] for e in entries})
    if times[0] > 0.0:
        times.insert(0, 0.0)
    # Balance of every pool at each event time (step function between).
    values = {p: [0] * len(times) for p in order}
    cur = dict.fromkeys(order, 0)
    j = 0
    for i, t in enumerate(times):
        while j < len(entries) and entries[j]["t"] <= t:
            cur[entries[j]["pool"]] = entries[j]["balance"]
            j += 1
        for p in order:
            values[p][i] = cur[p]
    totals = [sum(values[p][i] for p in order) for i in range(len(times))]
    peaks = {p: pools[p].get("peak_bytes", 0) for p in order}
    ymax = max(max(totals), max(peaks.values()), 1) * 1.12
    w, h, ml, mr, mt, mb = 560, 260, 64, 14, 14, 30
    sx = _Scale(0.0, times[-1] or 1.0, ml, w - mr)
    sy = _Scale(0.0, ymax, h - mb, mt)
    body = []
    for tk in _nice_ticks(0.0, ymax):
        y = sy(tk)
        body.append(f'<line class="grid" x1="{ml}" y1="{y:.1f}" '
                    f'x2="{w - mr}" y2="{y:.1f}"/>')
        body.append(f'<text x="{ml - 6}" y="{y + 3.5:.1f}" '
                    f'text-anchor="end">{_fmt_b(tk)}</text>')
    for tk in _nice_ticks(0.0, sx.hi):
        body.append(f'<text x="{sx(tk):.1f}" y="{h - mb + 16:.1f}" '
                    f'text-anchor="middle">{_fmt_s(tk)}</text>')
    body.append(f'<line class="axis" x1="{ml}" y1="{sy.a:.1f}" '
                f'x2="{w - mr}" y2="{sy.a:.1f}"/>')
    body.append(f'<line class="axis" x1="{ml}" y1="{sy.a:.1f}" '
                f'x2="{ml}" y2="{sy.b:.1f}"/>')

    def steps(series: list[float]) -> list[tuple[float, float]]:
        pts = []
        for i, v in enumerate(series):
            pts.append((sx(times[i]), sy(v)))
            if i + 1 < len(times):
                pts.append((sx(times[i + 1]), sy(v)))
        return pts

    base = [0.0] * len(times)
    for slot, p in enumerate(order):
        top = [base[i] + values[p][i] for i in range(len(times))]
        cap = pools[p].get("capacity_bytes")
        head = pools[p].get("headroom_bytes")
        tip = (f"{p}\npeak {_fmt_b(peaks[p])}"
               + (f"\ncapacity {_fmt_b(cap)}" if cap is not None else "")
               + (f"\nheadroom {_fmt_b(head)}" if head is not None else ""))
        band = steps(top) + list(reversed(steps(base)))
        body.append(f'<polygon points="{_poly(band)}" '
                    f'fill="var(--s{slot % 8 + 1})" opacity="0.35" '
                    f'tabindex="0" data-tip="{_esc(tip)}"/>')
        body.append(f'<polyline points="{_poly(steps(top))}" fill="none" '
                    f'stroke="var(--s{slot % 8 + 1})" stroke-width="1.5" '
                    f'stroke-linejoin="round"/>')
        base = top
    # High-watermark lines: each pool's own peak, in absolute bytes.
    for slot, p in enumerate(order):
        y = sy(peaks[p])
        body.append(
            f'<line x1="{ml}" y1="{y:.1f}" x2="{w - mr}" y2="{y:.1f}" '
            f'stroke="var(--s{slot % 8 + 1})" stroke-width="1.5" '
            f'stroke-dasharray="4 3" tabindex="0" '
            f'data-tip="{_esc(f"{p} high-watermark {_fmt_b(peaks[p])}")}"/>')
    legend = '<div class="legend">' + "".join(
        f'<span class="key"><span class="swatch" '
        f'style="background:var(--s{slot % 8 + 1})"></span>'
        f'{_esc(p)}</span>'
        for slot, p in enumerate(order)) + (
        '<span class="key"><span class="linekey" style="background:'
        'var(--ink-3)"></span>dashed: high-watermark</span></div>')
    return ('<div class="card"><h3>Memory occupancy</h3>'
            '<p class="sub">stacked pool occupancy over simulated time; '
            'dashed lines mark each pool&rsquo;s high-watermark</p>'
            + legend + _svg(w, h, body, "memory occupancy over time")
            + "</div>")


def _memory_table(doc: dict) -> str:
    """Accessible table-view twin of the occupancy chart."""
    pools = doc.get("pools", {})
    if not pools:
        return '<p class="note">no pools recorded</p>'
    rows = []
    for p in _memory_pool_order(pools):
        d = pools[p]
        cap = d.get("capacity_bytes")
        head = d.get("headroom_bytes")
        leak = d.get("balance_bytes", 0)
        verdict = ('<span class="chip ok">&#10003; balanced</span>'
                   if leak == 0 else
                   f'<span class="chip bad">&#9888; leak '
                   f'{_fmt_b(leak)}</span>')
        rows.append(
            "<tr>"
            f'<td class="l">{_esc(p)}</td>'
            f'<td>{_fmt_b(d.get("peak_bytes", 0))}</td>'
            f'<td>{_fmt_b(cap) if cap is not None else "&mdash;"}</td>'
            f'<td>{_fmt_b(head) if head is not None else "&mdash;"}</td>'
            f'<td>{d.get("n_allocs", 0)}</td>'
            f'<td>{d.get("n_frees", 0)}</td>'
            f'<td class="l">{verdict}</td></tr>')
    return ('<table class="viz"><thead><tr>'
            '<th class="l">pool</th><th>peak</th><th>capacity</th>'
            '<th>headroom</th><th>allocs</th><th>frees</th>'
            '<th class="l">verdict</th></tr></thead><tbody>'
            + "".join(rows) + "</tbody></table>")


def render_memory_dashboard(doc: dict, title: str = "") -> str:
    """Self-contained memory-observatory HTML for one
    ``repro.memory/v1`` ledger document (from
    :meth:`repro.obs.memory.MemoryLedger.to_dict`)."""
    pools = doc.get("pools", {})
    n_allocs = sum(p.get("n_allocs", 0) for p in pools.values())
    n_frees = sum(p.get("n_frees", 0) for p in pools.values())
    balanced = doc.get("balanced", True)
    tiles = [
        ("pools", f"{len(pools)}", ""),
        ("allocations", f"{n_allocs}", ""),
        ("releases", f"{n_frees}", ""),
        ("leak check", "balanced" if balanced else "LEAK",
         "ok" if balanced else "bad"),
    ]
    sub = _esc(title) if title else ("byte-exact allocation ledger over "
                                     "the simulated cudaMalloc / "
                                     "cudaMallocHost paths")
    return _page("Memory observatory", "Memory observatory", sub, tiles,
                 f'<h2>Occupancy</h2>\n<div class="cards">'
                 f'{_memory_panel(doc)}</div>\n<h2>Pools</h2>\n'
                 + _memory_table(doc))


def write_memory_dashboard(doc: dict, path, title: str = "") -> None:
    """Render and write the memory observatory to ``path``."""
    _write(path, render_memory_dashboard(doc, title=title))


# ---------------------------------------------------------------------------
# Interconnect observatory panels (repro.flows/v1 ledger documents)
# ---------------------------------------------------------------------------

def _flow_link_panel(name: str, pts: _t.Sequence[tuple[float, float]],
                     capacity: float | None) -> str:
    """Granted-bandwidth-over-time SVG for one link: the aggregate
    allocated rate as a step series with a dashed capacity line."""
    if not pts:
        return (f'<div class="card"><h3>{_esc(name)}</h3>'
                '<p class="note">no flows crossed this link</p></div>')
    t_end = pts[-1][0] or 1.0
    peak = max(v for _, v in pts)
    ymax = max(peak, capacity or 0.0, 1.0) * 1.12
    w, h, ml, mr, mt, mb = 420, 200, 64, 14, 14, 30
    sx = _Scale(0.0, t_end, ml, w - mr)
    sy = _Scale(0.0, ymax, h - mb, mt)
    body = []
    for tk in _nice_ticks(0.0, ymax):
        y = sy(tk)
        body.append(f'<line class="grid" x1="{ml}" y1="{y:.1f}" '
                    f'x2="{w - mr}" y2="{y:.1f}"/>')
        body.append(f'<text x="{ml - 6}" y="{y + 3.5:.1f}" '
                    f'text-anchor="end">{_fmt_b(tk)}/s</text>')
    for tk in _nice_ticks(0.0, sx.hi):
        body.append(f'<text x="{sx(tk):.1f}" y="{h - mb + 16:.1f}" '
                    f'text-anchor="middle">{_fmt_s(tk)}</text>')
    body.append(f'<line class="axis" x1="{ml}" y1="{sy.a:.1f}" '
                f'x2="{w - mr}" y2="{sy.a:.1f}"/>')
    body.append(f'<line class="axis" x1="{ml}" y1="{sy.a:.1f}" '
                f'x2="{ml}" y2="{sy.b:.1f}"/>')
    steps = []
    for i, (t, v) in enumerate(pts):
        steps.append((sx(t), sy(v)))
        if i + 1 < len(pts):
            steps.append((sx(pts[i + 1][0]), sy(v)))
    band = steps + [(sx(t_end), sy.a), (sx(pts[0][0]), sy.a)]
    tip = (f"{name}\npeak {_fmt_b(peak)}/s"
           + (f"\ncapacity {_fmt_b(capacity)}/s"
              f"\npeak utilization {peak / capacity:.0%}"
              if capacity else ""))
    body.append(f'<polygon points="{_poly(band)}" fill="var(--s1)" '
                f'opacity="0.35" tabindex="0" data-tip="{_esc(tip)}"/>')
    body.append(f'<polyline points="{_poly(steps)}" fill="none" '
                f'stroke="var(--s1)" stroke-width="1.5" '
                f'stroke-linejoin="round"/>')
    if capacity:
        y = sy(capacity)
        body.append(
            f'<line x1="{ml}" y1="{y:.1f}" x2="{w - mr}" y2="{y:.1f}" '
            f'stroke="var(--ink-3)" stroke-width="1.5" '
            f'stroke-dasharray="4 3" tabindex="0" '
            f'data-tip="{_esc(f"{name} capacity {_fmt_b(capacity)}/s")}"/>')
    return (f'<div class="card"><h3>{_esc(name)}</h3>'
            '<p class="sub">granted bandwidth over simulated time; '
            'dashed line marks link capacity</p>'
            + _svg(w, h, body, f"granted bandwidth on {name}")
            + "</div>")


def _flow_concurrency_panel(series: _t.Sequence[tuple[float, int]]) -> str:
    """Flows-in-flight-over-time SVG (integer step series)."""
    if not series:
        return ('<div class="card"><h3>Flows in flight</h3>'
                '<p class="note">no flows recorded</p></div>')
    t_end = series[-1][0] or 1.0
    peak = max(c for _, c in series)
    ymax = max(peak, 1) * 1.15
    w, h, ml, mr, mt, mb = 420, 200, 44, 14, 14, 30
    sx = _Scale(0.0, t_end, ml, w - mr)
    sy = _Scale(0.0, ymax, h - mb, mt)
    body = []
    for tk in _nice_ticks(0.0, ymax):
        if tk != int(tk):
            continue
        y = sy(tk)
        body.append(f'<line class="grid" x1="{ml}" y1="{y:.1f}" '
                    f'x2="{w - mr}" y2="{y:.1f}"/>')
        body.append(f'<text x="{ml - 6}" y="{y + 3.5:.1f}" '
                    f'text-anchor="end">{int(tk)}</text>')
    for tk in _nice_ticks(0.0, sx.hi):
        body.append(f'<text x="{sx(tk):.1f}" y="{h - mb + 16:.1f}" '
                    f'text-anchor="middle">{_fmt_s(tk)}</text>')
    body.append(f'<line class="axis" x1="{ml}" y1="{sy.a:.1f}" '
                f'x2="{w - mr}" y2="{sy.a:.1f}"/>')
    body.append(f'<line class="axis" x1="{ml}" y1="{sy.a:.1f}" '
                f'x2="{ml}" y2="{sy.b:.1f}"/>')
    steps = []
    for i, (t, c) in enumerate(series):
        steps.append((sx(t), sy(c)))
        if i + 1 < len(series):
            steps.append((sx(series[i + 1][0]), sy(c)))
    body.append(f'<polyline points="{_poly(steps)}" fill="none" '
                f'stroke="var(--s3)" stroke-width="1.5" '
                f'stroke-linejoin="round" tabindex="0" '
                f'data-tip="{_esc(f"peak {peak} concurrent flows")}"/>')
    return ('<div class="card"><h3>Flows in flight</h3>'
            '<p class="sub">concurrent transfers over simulated time</p>'
            + _svg(w, h, body, "flows in flight over time") + "</div>")


def _flow_links_table(doc: dict) -> str:
    """Accessible table-view twin of the per-link panels."""
    from repro.obs.flows import link_peaks
    peaks = link_peaks(doc)
    if not peaks:
        return '<p class="note">no links recorded</p>'
    rows = []
    for name in sorted(peaks):
        d = peaks[name]
        cap = d["capacity_bytes_per_s"]
        util = d["peak_utilization"]
        rows.append(
            "<tr>"
            f'<td class="l">{_esc(name)}</td>'
            f'<td>{_fmt_b(cap) + "/s" if cap is not None else "&mdash;"}'
            "</td>"
            f'<td>{_fmt_b(d["peak_bytes_per_s"])}/s</td>'
            f'<td>{util:.0%}</td></tr>')
    return ('<table class="viz"><thead><tr>'
            '<th class="l">link</th><th>capacity</th><th>peak rate</th>'
            '<th>peak utilization</th></tr></thead><tbody>'
            + "".join(rows) + "</tbody></table>")


def _flow_contention_table(contention: dict, limit: int = 15) -> str:
    """Top-contended flows: measured duration split into isolation time
    and per-culprit slowdown charges (charges sum to the duration bit
    for bit; see :func:`repro.obs.flows.attribute_contention`)."""
    flows = sorted(contention.get("flows", []),
                   key=lambda f: (-f["slowdown_s"], f["id"]))
    if not flows:
        return '<p class="note">no completed flows recorded</p>'
    rows = []
    for f in flows[:limit]:
        charges = sorted(((k, v) for k, v in f["parts"].items()
                          if k != "isolation" and v > 0.0),
                         key=lambda kv: -kv[1])
        top = ", ".join(f"{_esc(k)} {_fmt_s(v)}" for k, v in charges[:3])
        rows.append(
            "<tr>"
            f'<td>{f["id"]}</td>'
            f'<td class="l">{_esc(f["label"])}</td>'
            f'<td>{_fmt_s(f["duration_s"])}</td>'
            f'<td>{_fmt_s(f["isolation_s"])}</td>'
            f'<td>{_fmt_s(f["slowdown_s"])}</td>'
            f'<td class="l">{top or "&mdash;"}</td></tr>')
    return ('<table class="viz"><thead><tr>'
            '<th>id</th><th class="l">flow</th><th>duration</th>'
            '<th>isolation</th><th>slowdown</th>'
            '<th class="l">charged to</th></tr></thead><tbody>'
            + "".join(rows) + "</tbody></table>")


def _flows_section(doc: dict) -> str:
    """Link panels + concurrency panel + tables for one
    ``repro.flows/v1`` document (shared by the standalone observatory
    page and the sweep dashboard's flows section)."""
    from repro.obs.flows import (attribute_contention, concurrency_series,
                                 link_timelines)
    caps = doc.get("capacities", {})
    panels = "".join(
        _flow_link_panel(name, pts, caps.get(name))
        for name, pts in link_timelines(doc).items())
    panels += _flow_concurrency_panel(concurrency_series(doc))
    contention = attribute_contention(doc)
    return (f'<div class="cards">{panels}</div>'
            '<h2>Links</h2>' + _flow_links_table(doc) +
            '<h2>Top contended flows</h2>'
            + _flow_contention_table(contention))


def render_flows_dashboard(doc: dict, title: str = "") -> str:
    """Self-contained interconnect-observatory HTML for one
    ``repro.flows/v1`` ledger document (from
    :meth:`repro.obs.flows.FlowLedger.to_dict`)."""
    from repro.obs.flows import attribute_contention, link_peaks
    peaks = link_peaks(doc)
    contention = attribute_contention(doc)
    n_flows = doc.get("n_flows", 0)
    moved = sum(f["moved"] for f in doc.get("flows", [])
                if f.get("moved") is not None)
    peak_util = max((d["peak_utilization"] for d in peaks.values()),
                    default=0.0)
    tiles = [
        ("flows", f"{n_flows}", ""),
        ("bytes moved", _fmt_b(moved), ""),
        ("links", f"{len(peaks)}", ""),
        ("peak link utilization", f"{peak_util:.0%}",
         "bad" if peak_util >= 1.0 else ""),
        ("contention", _fmt_s(contention["total_contention_s"]), ""),
    ]
    sub = _esc(title) if title else ("per-flow bandwidth grants from the "
                                     "max-min fair fluid-flow network")
    return _page("Interconnect observatory", "Interconnect observatory",
                 sub, tiles, "<h2>Link occupancy</h2>\n"
                 + _flows_section(doc))


def write_flows_dashboard(doc: dict, path, title: str = "") -> None:
    """Render and write the interconnect observatory to ``path``."""
    _write(path, render_flows_dashboard(doc, title=title))


# ---------------------------------------------------------------------------
# Multi-tenant service panels (repro.service/v1 verdicts)
# ---------------------------------------------------------------------------

def _service_jobs_panel(verdict: dict) -> str:
    """Tenant-latency timeline: one horizontal bar per job from arrival
    to completion, the queued prefix hollow and the service suffix
    solid, rows grouped by tenant (one palette slot each)."""
    jobs = verdict.get("jobs", [])
    if not jobs:
        return ('<div class="card"><h3>Job latencies</h3>'
                '<p class="note">no jobs completed</p></div>')
    tenants = list(verdict.get("tenants", {}))
    slot_of = {t: i % 8 + 1 for i, t in enumerate(tenants)}
    ordered = sorted(jobs, key=lambda j: (tenants.index(j["tenant"]),
                                          j["arrival_s"], j["job_id"]))
    t_end = max(j["end_s"] for j in jobs) or 1.0
    row_h, ml, mr, mt, mb = 14, 64, 14, 14, 30
    w = 560
    h = mt + row_h * len(ordered) + mb
    sx = _Scale(0.0, t_end, ml, w - mr)
    body = []
    for tk in _nice_ticks(0.0, t_end):
        x = sx(tk)
        body.append(f'<line class="grid" x1="{x:.1f}" y1="{mt}" '
                    f'x2="{x:.1f}" y2="{h - mb:.1f}"/>')
        body.append(f'<text x="{x:.1f}" y="{h - mb + 16:.1f}" '
                    f'text-anchor="middle">{_fmt_s(tk)}</text>')
    body.append(f'<line class="axis" x1="{ml}" y1="{h - mb:.1f}" '
                f'x2="{w - mr}" y2="{h - mb:.1f}"/>')
    prev_tenant = None
    for i, j in enumerate(ordered):
        y = mt + i * row_h
        slot = slot_of[j["tenant"]]
        if j["tenant"] != prev_tenant:
            body.append(f'<text class="lab" x="{ml - 6}" '
                        f'y="{y + row_h - 4:.1f}" text-anchor="end">'
                        f'{_esc(j["tenant"])}</text>')
            prev_tenant = j["tenant"]
        tip = (f"{j['job_id']}\nlatency {_fmt_s(j['latency_s'])}"
               f"\nqueued {_fmt_s(j['queued_s'])}"
               f"\nservice {_fmt_s(j['service_s'])}")
        if j.get("slo_s") is not None:
            tip += ("\nSLO " + _fmt_s(j["slo_s"])
                    + (" (hit)" if j["slo_ok"] else " (MISS)"))
        x0, x1, x2 = sx(j["arrival_s"]), sx(j["admit_s"]), sx(j["end_s"])
        body.append(
            f'<rect x="{x0:.1f}" y="{y + 2:.1f}" '
            f'width="{max(x1 - x0, 0.0):.1f}" height="{row_h - 5}" '
            f'fill="none" stroke="var(--s{slot})" stroke-width="1" '
            f'opacity="0.7"/>')
        body.append(
            f'<rect x="{x1:.1f}" y="{y + 2:.1f}" '
            f'width="{max(x2 - x1, 1.0):.1f}" height="{row_h - 5}" '
            f'fill="var(--s{slot})" opacity="0.8" tabindex="0" '
            f'data-tip="{_esc(tip)}"/>')
        if not j.get("slo_ok", True) and j.get("slo_s") is not None:
            body.append(f'<text x="{x2 + 4:.1f}" y="{y + row_h - 4:.1f}" '
                        f'fill="var(--critical)">&#9888;</text>')
    legend = '<div class="legend">' + "".join(
        f'<span class="key"><span class="swatch" '
        f'style="background:var(--s{slot_of[t]})"></span>{_esc(t)}</span>'
        for t in tenants) + (
        '<span class="key"><span class="linekey" style="background:'
        'var(--ink-3)"></span>hollow prefix: queued</span></div>')
    return ('<div class="card"><h3>Per-tenant job latencies</h3>'
            '<p class="sub">each bar spans arrival to completion; the '
            'hollow prefix is admission queueing, the solid part is '
            'service</p>'
            + legend
            + _svg(w, h, body, "per-tenant job latency timeline")
            + "</div>")


def _service_tenant_table(verdict: dict) -> str:
    """Accessible table-view twin of the latency panel."""
    tenants = verdict.get("tenants", {})
    if not tenants:
        return '<p class="note">no tenants recorded</p>'
    rows = []
    for name, t in tenants.items():
        hit = t.get("slo_hit_rate")
        slo = (f'{hit:.0%} of {t["slo_jobs"]}' if hit is not None
               else "&mdash;")
        rows.append(
            "<tr>"
            f'<td class="l">{_esc(name)}</td>'
            f'<td>{t["priority"]}</td>'
            f'<td>{t["share"]:g}</td>'
            f'<td>{t["n_jobs"]}</td>'
            f'<td>{_fmt_s(t["p50_latency_s"])}</td>'
            f'<td>{_fmt_s(t["p99_latency_s"])}</td>'
            f'<td>{_fmt_s(t["mean_queued_s"])}</td>'
            f'<td>{slo}</td>'
            f'<td>{_fmt_b(t["bytes_moved"])}</td></tr>')
    return ('<table class="viz"><thead><tr>'
            '<th class="l">tenant</th><th>priority</th><th>share</th>'
            '<th>jobs</th><th>p50 latency</th><th>p99 latency</th>'
            '<th>mean queued</th><th>SLO hits</th><th>bytes moved</th>'
            '</tr></thead><tbody>' + "".join(rows) + "</tbody></table>")


def render_service_dashboard(verdict: dict, title: str = "") -> str:
    """Self-contained multi-tenant service HTML for one
    ``repro.service/v1`` verdict (from
    :func:`repro.service.verdict.build_verdict`)."""
    jain = verdict.get("fairness", {}).get("jain_latency_index", 1.0)
    slo = verdict.get("slo", {})
    hit = slo.get("hit_rate")
    ctl = verdict.get("controller")
    tiles = [
        ("allocator", str(verdict.get("allocator", "?")), ""),
        ("tenants", f"{verdict.get('n_tenants', 0)}", ""),
        ("jobs", f"{verdict.get('n_jobs', 0)}", ""),
        ("Jain fairness", f"{jain:.4f}", ""),
        ("SLO hit rate",
         f"{hit:.0%}" if hit is not None else "n/a",
         "" if hit is None else ("ok" if hit >= 1.0 else "bad")),
    ]
    if ctl is not None:
        tiles.append(("reclaimed / epoch",
                      f"{ctl['mean_reclaimed_fraction']:.0%}", ""))
    sub = _esc(title) if title else (
        "per-tenant QoS under the "
        f"{_esc(verdict.get('allocator', '?'))} bandwidth allocator")
    return _page("Sort service", "Multi-tenant sort service", sub, tiles,
                 f'<h2>Job latencies</h2>\n<div class="cards">'
                 f'{_service_jobs_panel(verdict)}</div>\n<h2>Tenants</h2>\n'
                 + _service_tenant_table(verdict))


def write_service_dashboard(verdict: dict, path, title: str = "") -> None:
    """Render and write the service dashboard to ``path``."""
    _write(path, render_service_dashboard(verdict, title=title))


# ---------------------------------------------------------------------------
# Trend observatory panels (archive history; repro.trends/v1 documents)
# ---------------------------------------------------------------------------

def _trend_metric_panel(fp: str, label: str, metric: str,
                        tr: dict) -> str:
    """One metric's archive history for one fingerprint: the raw series
    (slot 1) with its EWMA smoothing (slot 2), a dashed vertical marker
    at every detected changepoint and a critical ring on every
    regime-local anomaly."""
    vals = tr["values"]
    if not vals:
        return ""
    smooth = tr["ewma"]
    cps = {c["index"]: c for c in tr["changepoints"]}
    anomalies = set(tr["anomalies"])
    w, h, ml, mr, mt, mb = 380, 200, 64, 14, 14, 30
    lo = min(vals + smooth)
    hi = max(vals + smooth)
    if hi <= lo:                       # flat series still gets a band
        lo, hi = lo - max(abs(lo), 1.0) * 0.05, hi + max(abs(hi), 1.0) * 0.05
    pad = (hi - lo) * 0.08
    sx = _Scale(0, max(1, len(vals) - 1), ml, w - mr)
    sy = _Scale(lo - pad, hi + pad, h - mb, mt)
    is_time = metric.endswith("_s")
    body = _frame(sx, sy, y_time=is_time)
    for i, cp in cps.items():
        x = sx(i)
        body.append(
            f'<line x1="{x:.1f}" y1="{sy.a:.1f}" x2="{x:.1f}" '
            f'y2="{sy.b:.1f}" stroke="var(--critical)" '
            f'stroke-width="1.5" stroke-dasharray="4 3" tabindex="0" '
            f'data-tip="{_esc(_cp_tip(i, cp, is_time))}"/>')
    body.append(f'<polyline points="'
                f'{_poly([(sx(i), sy(v)) for i, v in enumerate(smooth)])}"'
                f' fill="none" stroke="var(--s2)" stroke-width="1.5" '
                f'opacity="0.7" stroke-linejoin="round"/>')
    body.append(f'<polyline points="'
                f'{_poly([(sx(i), sy(v)) for i, v in enumerate(vals)])}" '
                f'fill="none" stroke="var(--s1)" stroke-width="2" '
                f'stroke-linejoin="round" stroke-linecap="round"/>')
    for i, v in enumerate(vals):
        flag = (" &#9888; anomaly within its regime"
                if i in anomalies else "")
        tip = (f"run {i + 1}/{len(vals)}\n{metric} = "
               f"{_fmt_s(v) if is_time else _fmt_n(v)}{flag}")
        ring = ('stroke="var(--critical)" stroke-width="2"'
                if i in anomalies
                else 'stroke="var(--surface-1)" stroke-width="1.5"')
        body.append(
            f'<circle cx="{sx(i):.1f}" cy="{sy(v):.1f}" r="3.5" '
            f'fill="var(--s1)" {ring} tabindex="0" '
            f'data-tip="{_esc(tip)}"/>')
    bits = [f"median {_fmt_s(tr['median']) if is_time else _fmt_n(tr['median'])}",
            f"{len(cps)} changepoint(s)"]
    if anomalies:
        bits.append(f"{len(anomalies)} anomaly flag(s)")
    ratchet = tr.get("ratchet")
    sub = " &middot; ".join(bits)
    extra = (f'<p class="sub"><span class="chip bad">&#9888; '
             f'{_esc(ratchet["message"])}</span></p>' if ratchet else "")
    return (f'<div class="card"><h3>{_esc(metric)} &mdash; '
            f'{_esc(label or fp)}</h3><p class="sub">{sub}</p>{extra}'
            + _svg(w, h, body, f"{metric} history, {label or fp}")
            + "</div>")


def _cp_tip(index: int, cp: dict, is_time: bool) -> str:
    fmt = _fmt_s if is_time else _fmt_n
    return (f"changepoint at run {index + 1}\n"
            f"before {fmt(cp['before'])} -> after {fmt(cp['after'])}\n"
            f"ratio {cp['ratio']:.2f}x, score {cp['score']:.1f} sigma")


def _trend_spark_table(trends: dict) -> str:
    """Accessible table-view twin of the trend cards: one row per
    (fingerprint, metric) series with a unicode sparkline (changepoints
    rendered as ``|``) and the headline statistics."""
    from repro.reporting.series import sparkline
    rows = []
    for fp, blk in trends.get("fingerprints", {}).items():
        for metric, tr in blk.get("metrics", {}).items():
            if not tr["values"]:
                continue
            is_time = metric.endswith("_s")
            fmt = _fmt_s if is_time else _fmt_n
            marks = [c["index"] for c in tr["changepoints"]]
            spark = sparkline(tr["values"], marks)
            flags = []
            if tr["changepoints"]:
                flags.append(f'{len(tr["changepoints"])} step(s)')
            if tr["anomalies"]:
                flags.append(f'{len(tr["anomalies"])} anomaly')
            if tr.get("ratchet"):
                flags.append("re-baseline proposed")
            chip = (f'<span class="chip bad">&#9888; '
                    f'{_esc("; ".join(flags))}</span>' if flags else
                    '<span class="chip ok">&#10003; stable</span>')
            rows.append(
                "<tr>"
                f'<td class="l">{_esc(blk.get("label") or fp)}</td>'
                f'<td class="l">{_esc(metric)}</td>'
                f'<td>{tr["n"]}</td>'
                f'<td class="l" style="font-family:monospace">'
                f'{_esc(spark)}</td>'
                f'<td>{fmt(tr["median"])}</td>'
                f'<td>{fmt(tr["last"])}</td>'
                f'<td class="l">{chip}</td></tr>')
    if not rows:
        return '<p class="note">no archived series yet</p>'
    return ('<table class="viz"><thead><tr>'
            '<th class="l">workload</th><th class="l">metric</th>'
            '<th>runs</th><th class="l">history</th><th>median</th>'
            '<th>last</th><th class="l">verdict</th></tr></thead>'
            '<tbody>' + "".join(rows) + "</tbody></table>")


def _trend_section(trends: dict) -> str:
    """The trend-observatory block shared by both dashboards: metric
    history cards (changepoint markers + anomaly rings) and the
    sparkline table."""
    cards = "".join(
        _trend_metric_panel(fp, blk.get("label", ""), metric, tr)
        for fp, blk in trends.get("fingerprints", {}).items()
        for metric, tr in blk.get("metrics", {}).items())
    legend = (
        '<div class="legend">'
        '<span class="key"><span class="linekey" '
        'style="background:var(--s1)"></span>archived runs</span>'
        '<span class="key"><span class="linekey" '
        'style="background:var(--s2)"></span>EWMA '
        f'(&alpha; {trends.get("params", {}).get("ewma_alpha", 0.3):g})'
        '</span>'
        '<span class="key"><span class="linekey" '
        'style="background:var(--critical)"></span>changepoint</span>'
        '<span class="key"><span class="swatch" '
        'style="background:var(--s1);border:2px solid var(--critical);'
        'border-radius:50%"></span>anomaly flag</span></div>')
    return (legend + f'<div class="cards">{cards}</div>'
            '<h2>Series overview</h2>' + _trend_spark_table(trends))


def render_trend_dashboard(trends: dict) -> str:
    """Self-contained trend-observatory HTML for one ``repro.trends/v1``
    document (from :func:`repro.obs.trends.trend_summary`)."""
    n_cps = trends.get("n_changepoints", 0)
    n_props = trends.get("n_proposals", 0)
    tiles = [
        ("workloads", f"{trends.get('n_fingerprints', 0)}", ""),
        ("metric series", f"{trends.get('n_series', 0)}", ""),
        ("changepoints", f"{n_cps}", "bad" if n_cps else "ok"),
        ("re-baseline proposals", f"{n_props}",
         "bad" if n_props else "ok"),
    ]
    return _page("Trend observatory", "Trend observatory",
                 "per-metric history over the run archive, grouped by\n"
                 "workload fingerprint; steps detected by robust "
                 "(MAD-scored) binary\nsegmentation, anomalies flagged "
                 "regime-locally", tiles,
                 "<h2>Metric history</h2>\n" + _trend_section(trends))


def write_trend_dashboard(trends: dict, path) -> None:
    """Render and write the trend observatory to ``path``."""
    _write(path, render_trend_dashboard(trends))


# ---------------------------------------------------------------------------
# The document
# ---------------------------------------------------------------------------

def render_dashboard(records: _t.Sequence[dict], summary: dict,
                     trends: dict | None = None,
                     memory: dict | None = None,
                     flows: dict | None = None) -> str:
    """The complete, self-contained dashboard HTML for a sweep ledger
    (``records``) and its conformance ``summary``.  When a
    ``repro.trends/v1`` document is passed, a trend-observatory panel
    (archive history with changepoint markers) is appended; when a
    ``repro.memory/v1`` ledger document is passed, a memory-occupancy
    panel (stacked occupancy SVG with watermark lines) is appended; when
    a ``repro.flows/v1`` ledger document is passed, per-link occupancy
    panels and the contention table are appended."""
    records = list(records)
    n_anom = summary.get("n_anomalies", 0)
    anom_cls = "bad" if n_anom else "ok"
    worst_rel_gap = max(
        (abs(r["conformance"]["gap_s"]) / r["conformance"]["measured_s"]
         for r in records if r["conformance"]["measured_s"] > 0),
        default=0.0)
    tiles = [
        ("runs", f"{summary.get('n_runs', len(records))}", ""),
        ("fit groups", f"{summary.get('n_groups', 0)}", ""),
        ("anomalies", f"{n_anom}", anom_cls),
        ("mean model/measured",
         f"{summary.get('mean_slowdown', 0.0):.3f}", ""),
        ("worst gap vs measured", f"{worst_rel_gap:.0%}", ""),
    ]
    scatter = "".join(
        _scatter_panel(key, grp, records)
        for key, grp in summary.get("groups", {}).items())
    scatter_legend = (
        '<div class="legend">'
        '<span class="key"><span class="swatch" '
        'style="background:var(--s1);border-radius:50%"></span>'
        'measured runs</span>'
        '<span class="key"><span class="linekey" '
        'style="background:var(--s2)"></span>fitted line</span>'
        '<span class="key"><span class="linekey" '
        'style="background:var(--s3)"></span>lower-bound model</span>'
        '<span class="key"><span class="linekey" '
        'style="background:var(--ink-3)"></span>paper slope '
        '(PLATFORM2)</span>'
        '<span class="key"><span class="swatch" '
        'style="background:var(--s1);border:2px solid var(--critical);'
        'border-radius:50%"></span>anomalous run</span></div>')
    fig8 = _fig8_panel(records)
    body = f"""<h2>Measured vs. model (Fig. 11)</h2>
{scatter_legend}
<div class="cards">{scatter}</div>
{'<h2>Missing overhead (Fig. 8)</h2><div class="cards">' + fig8 +
 '</div>' if fig8 else ''}
<h2>Gap attribution</h2>
<div class="cards">{_residual_panel(records)}</div>
<h2>Anomalies</h2>
{_anomaly_table(summary)}
<h2>Sweep ledger</h2>
{_ledger_table(records)}
<h2>Per-run critical paths</h2>
{_run_details(records)}
{('<h2>Memory occupancy</h2><div class="cards">' + _memory_panel(memory)
  + '</div>' + _memory_table(memory)) if memory else ''}
{('<h2>Interconnect occupancy</h2>' + _flows_section(flows))
 if flows else ''}
{('<h2>Performance over time</h2>' + _trend_section(trends))
 if trends else ''}
{_paper_band_note(summary)}"""
    return _page("Model-conformance dashboard", "Model-conformance dashboard",
                 "lower-bound model vs. measured makespans across the sweep"
                 "\nledger (Sec. IV-G / Fig. 11 methodology); gap "
                 "attribution along the\ncausal critical path", tiles, body)


def write_dashboard(records: _t.Sequence[dict], summary: dict,
                    path, trends: dict | None = None,
                    memory: dict | None = None,
                    flows: dict | None = None) -> None:
    """Render and write the dashboard to ``path``."""
    _write(path, render_dashboard(records, summary, trends, memory=memory,
                                  flows=flows))
