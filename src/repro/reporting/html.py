"""Self-contained HTML dashboards (inline SVG, no external dependencies).

Five pages, each from one versioned document: the model-conformance
dashboard of a sweep ledger (:func:`render_dashboard`: the Fig. 11
measured-vs-model scatter per fit group, the Fig. 8 missing overhead,
the gap attributed along the causal critical path, anomaly and ledger
tables, per-run critical paths, optional memory, interconnect and trend
sections) and the memory (``repro.memory/v1``), interconnect
(``repro.flows/v1``), service (``repro.service/v1``) and trend
(``repro.trends/v1``) observatories.

Each page is the shared shell (:func:`_page`) around a declaration of
sections over three primitives: :func:`step_panel` (step series,
optionally stacked or filled, with dashed reference lines),
:func:`scatter_panel` (points, polylines, reference lines, a shaded
band, vertical markers) and :func:`table`, on one frame, legend and
card.  Only the Gantt-like service timeline and the stacked residual
bars draw marks of their own.  A new dashboard is a new declaration.

Charts follow a small fixed spec: thin marks, hairline solid gridlines,
a legend for multi-series panels, hover tooltips (enhance, never gate --
every value is also in the tables), text in ink tokens rather than
series colors, and a dark mode selected via ``prefers-color-scheme``.
The categorical palette (``--s1``..``--s8``) and its slot order are
CVD-validated.
"""

from __future__ import annotations

import html as _html
import math
import typing as _t
from pathlib import Path

__all__ = ["render_dashboard", "write_dashboard",
           "render_trend_dashboard", "write_trend_dashboard",
           "render_memory_dashboard", "write_memory_dashboard",
           "render_flows_dashboard", "write_flows_dashboard",
           "render_service_dashboard", "write_service_dashboard"]

#: Fixed category -> palette-slot order for the residual stacks (the
#: stack order is also the adjacency the palette was validated for).
_STACK_CATEGORIES = ["GPUSort", "HtoD", "DtoH", "MCpy", "Sync",
                     "PinnedAlloc", "(wait)"]

#: Plot margins in pixels: left (tick labels), right, top, bottom.
_ML, _MR, _MT, _MB = 64, 14, 14, 30

#: Legend swatch of a point with a critical ring (an anomaly).
_RING = "var(--s1);border:2px solid var(--critical);border-radius:50%"

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
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 8px; }
.viz-root .sub { color: var(--ink-2); margin: 0 0 16px; }
.viz-root .note { color: var(--ink-3); font-size: 12px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile, .card, table.viz { background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px; }
.tile { padding: 10px 16px; min-width: 120px; }
.tile .label { font-size: 12px; color: var(--ink-2); }
.tile .value { font-size: 26px; font-weight: 600; }
.viz-root .bad { color: var(--critical); }
.viz-root .ok { color: var(--good); }
.cards { display: flex; flex-wrap: wrap; gap: 16px; }
.card { padding: 12px 14px; }
.card h3 { font-size: 13px; margin: 0 0 2px; }
.card .sub { font-size: 12px; margin: 0 0 6px; }
.legend { display: flex; flex-wrap: wrap; gap: 12px; font-size: 12px;
          color: var(--ink-2); margin: 6px 0; align-items: center; }
.legend .key { display: inline-flex; align-items: center; gap: 5px; }
.legend .swatch { width: 10px; height: 10px; border-radius: 2px;
                  display: inline-block; }
.legend .linekey { width: 14px; height: 2px; display: inline-block; }
table.viz { border-collapse: collapse; font-size: 13px; }
table.viz th, table.viz td { padding: 5px 10px; text-align: right;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
table.viz th { color: var(--ink-2); font-weight: 600; }
table.viz td.l, table.viz th.l { text-align: left;
  font-variant-numeric: normal; }
.chip { display: inline-flex; align-items: center; gap: 4px;
        font-size: 12px; font-weight: 600; }
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
    var w = tip.offsetWidth, h = tip.offsetHeight;
    tip.style.left = Math.min(x + 14, innerWidth - w - 6) + 'px';
    tip.style.top = (y + 14 + h > innerHeight ? y - h - 6 : y + 14) + 'px';
  }
  document.querySelectorAll('[data-tip]').forEach(function (el) {
    el.onpointermove = function (ev) { show(el, ev.clientX, ev.clientY); };
    el.onfocus = function () {
      var r = el.getBoundingClientRect();
      show(el, r.left + r.width / 2, r.top);
    };
    el.onpointerleave = el.onblur = function () {
      tip.style.display = 'none';
    };
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


def _fmt_rate(bps: float) -> str:
    return f"{_fmt_b(bps)}/s"


def _or_dash(fmt, v) -> str:
    return "&mdash;" if v is None else fmt(v)


def _nice_ticks(lo: float, hi: float, n: int = 4) -> list[float]:
    """<= n+2 round tick positions covering [lo, hi] (1/2/5 ladder)."""
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / max(1, n)
    mag = 10 ** math.floor(math.log10(raw))
    step = next((m * mag for m in (1, 2, 5, 10) if m * mag >= raw),
                10 * mag)
    t = math.ceil(lo / step) * step
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


# ---------------------------------------------------------------------------
# Marks, frame, legend, card and page
# ---------------------------------------------------------------------------

def _tip(tip: str | None) -> str:
    return f' tabindex="0" data-tip="{_esc(tip)}"' if tip else ""


def _poly(points: _t.Iterable[tuple[float, float]]) -> str:
    return " ".join(f"{x:.1f},{y:.1f}" for x, y in points)


def _stroke(color: str, width: float = 1.5, *, dash: bool = False,
            tip: str | None = None) -> str:
    return (f'stroke="{color}" stroke-width="{width}"'
            + (' stroke-dasharray="4 3"' if dash else "") + _tip(tip))


def _line(x1: float, y1: float, x2: float, y2: float, paint: str) -> str:
    """A line; ``paint`` is its class or :func:`_stroke` attributes."""
    return (f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
            f'y2="{y2:.1f}" {paint}/>')


def _polyline(points, color: str, width: float, opacity: float = 1.0,
              tip: str | None = None) -> str:
    return (f'<polyline points="{_poly(points)}" fill="none" '
            f'opacity="{opacity:g}" stroke-linejoin="round" '
            f'stroke-linecap="round" {_stroke(color, width, tip=tip)}/>')


def _svg(width: int, height: int, body: _t.Iterable[str],
         label: str) -> str:
    return (f'<svg role="img" aria-label="{_esc(label)}" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            + "".join(body) + "</svg>")


def _frame(sx: _Scale, sy: _Scale, xfmt=None, yfmt=None, *,
           ints: bool = False, zero: bool = False) -> list[str]:
    """Gridlines, tick labels and axes shared by every panel: ``yfmt``
    labels the y ticks (only integral ones when ``ints``) on horizontal
    gridlines and draws the y axis; ``xfmt`` labels the x ticks, where
    the gridlines run when there is no y scale (a timeline).  The x axis
    runs along the bottom, or along y = 0 with no y axis when ``zero``."""
    out = []
    for t in _nice_ticks(sy.lo, sy.hi) if yfmt else ():
        if not ints or t == int(t):
            out.append(_line(sx.a, sy(t), sx.b, sy(t), 'class="grid"'))
            out.append(f'<text x="{sx.a - 6:.1f}" y="{sy(t) + 3.5:.1f}" '
                       f'text-anchor="end">{yfmt(t)}</text>')
    for t in _nice_ticks(sx.lo, sx.hi) if xfmt else ():
        if not yfmt:
            out.append(_line(sx(t), sy.a, sx(t), sy.b, 'class="grid"'))
        out.append(f'<text x="{sx(t):.1f}" y="{sy.a + 16:.1f}" '
                   f'text-anchor="middle">{xfmt(t)}</text>')
    y0 = sy(0.0) if zero else sy.a
    out.append(_line(sx.a, y0, sx.b, y0, 'class="axis"'))
    if yfmt and not zero:
        out.append(_line(sx.a, sy.a, sx.a, sy.b, 'class="axis"'))
    return out


def _steps(xs: _t.Sequence[float], ys: _t.Iterable[float]
           ) -> list[tuple[float, float]]:
    """Vertices of a step series: each value holds until the next x."""
    return [(x, y) for i, y in enumerate(ys) for x in xs[i:i + 2]]


def _legend(keys: _t.Iterable[tuple[str, str, str]]) -> str:
    """``(kind, background, label HTML)`` keys; ``kind`` is ``swatch``
    (an area or point) or ``linekey`` (a line)."""
    return '<div class="legend">' + "".join(
        f'<span class="key"><span class="{kind}" '
        f'style="background:{bg}"></span>{label}</span>'
        for kind, bg, label in keys) + "</div>"


def _card(title: str, sub: str = "", legend: str = "", svg: str = "",
          note: str = "") -> str:
    """A panel card (all arguments HTML); an empty document gets only
    the heading and a ``note``."""
    return (f'<div class="card"><h3>{title}</h3>'
            + (f'<p class="sub">{sub}</p>' if sub else "") + legend + svg
            + (f'<p class="note">{note}</p>' if note else "") + "</div>")


def _cards(*cards: str) -> str:
    return '<div class="cards">' + "".join(cards) + "</div>"


def _page(title: str, heading: str, sub: str,
          tiles: _t.Iterable[tuple[str, str, str]],
          sections: _t.Iterable[tuple[str | None, str]]) -> str:
    """The shell every dashboard shares: stylesheet, heading, sub line,
    ``(label, value, class)`` stat tiles, then the ``(heading, HTML)``
    sections (one without HTML is left out, one without a heading
    continues the last) and the tooltip script."""
    tile_html = "".join(
        f'<div class="tile"><div class="label">{_esc(lab)}</div>'
        f'<div class="value {cls}">{_esc(val)}</div></div>'
        for lab, val, cls in tiles)
    body = "\n".join((f"<h2>{h}</h2>\n" if h else "") + html
                     for h, html in sections if html)
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


# ---------------------------------------------------------------------------
# The three primitives
# ---------------------------------------------------------------------------

def step_panel(label: str, xs: _t.Sequence[float], series, *, yfmt,
               size: tuple[int, int] = (420, 200), stack: bool = False,
               fill: bool = False, hlines=(), ints: bool = False,
               pad: float = 1.12) -> str:
    """Step series over simulated seconds ``xs``, as an SVG.

    ``series`` holds ``(ys, color, tip)``.  ``stack`` piles them up;
    ``fill`` shades each down to the one below it (or to zero) and puts
    the tip on the shade, else it sits on the line.  ``hlines`` are
    dashed ``(y, color, tip)`` reference lines.  The y axis (``yfmt``,
    ``ints`` as in :func:`_frame`) runs from zero to ``pad`` times the
    highest value, reference line or 1."""
    w, h = size
    layers, base = [], [0.0] * len(xs)
    for ys, color, tip in series:
        top = [b + y for b, y in zip(base, ys)] if stack else list(ys)
        layers.append((base, top, color, tip))
        base = top if stack else base
    ymax = max([max(top) for _, top, _, _ in layers]
               + [y for y, _, _ in hlines] + [1]) * pad
    sx = _Scale(0.0, xs[-1] or 1.0, _ML, w - _MR)
    sy = _Scale(0.0, ymax, h - _MB, _MT)
    body = _frame(sx, sy, _fmt_s, yfmt, ints=ints)
    for low, top, color, tip in layers:
        line = [(sx(x), sy(y)) for x, y in _steps(xs, top)]
        if fill:
            under = [(sx(x), sy(y)) for x, y in _steps(xs, low)]
            body.append(f'<polygon points="{_poly(line + under[::-1])}" '
                        f'fill="{color}" opacity="0.35"{_tip(tip)}/>')
        body.append(_polyline(line, color, 1.5, tip=None if fill else tip))
    body += [_line(sx.a, sy(y), sx.b, sy(y),
                   _stroke(color, dash=True, tip=tip))
             for y, color, tip in hlines]
    return _svg(w, h, body, label)


def scatter_panel(label: str, x_hi: float, y_lo: float, y_hi: float, *,
                  size: tuple[int, int] = (380, 240), yfmt=_fmt_s,
                  band=(), lines=(), vlines=(), polylines=(), points=(),
                  notes=()) -> str:
    """Points on ``[0, x_hi] x [y_lo, y_hi]`` (data units), as an SVG.

    ``band`` is a shaded polygon; ``vlines`` are dashed critical
    ``(x, tip)`` markers; ``lines`` are ``(x0, y0, x1, y1, color,
    width)`` reference segments; ``polylines`` are ``(points, color,
    width, opacity)``; ``points`` are ``(x, y, color, tip, flagged,
    title)`` dots, ringed critical when flagged and titled when
    ``title``; ``notes`` are ``(x, y, text)`` labels."""
    w, h = size
    sx = _Scale(0.0, x_hi, _ML, w - _MR)
    sy = _Scale(y_lo, y_hi, h - _MB, _MT)
    body = _frame(sx, sy, _fmt_n, yfmt)
    if band:
        shade = _poly((sx(x), sy(y)) for x, y in band)
        body.append(f'<polygon points="{shade}" fill="var(--s1)" '
                    'opacity="0.1"/>')
    body += [_line(sx(x), sy.a, sx(x), sy.b,
                   _stroke("var(--critical)", dash=True, tip=tip))
             for x, tip in vlines]
    body += [_line(sx(x0), sy(y0), sx(x1), sy(y1), _stroke(color, width))
             for x0, y0, x1, y1, color, width in lines]
    body += [_polyline([(sx(x), sy(y)) for x, y in pts], color, width,
                       opacity) for pts, color, width, opacity in polylines]
    for x, y, color, tip, flagged, title in points:
        ring = "critical" if flagged else "surface-1"
        body.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
                    f'fill="{color}" stroke="var(--{ring})" '
                    f'stroke-width="2"{_tip(tip)}>'
                    + (f"<title>{_esc(title)}</title>" if title else "")
                    + "</circle>")
    body += [f'<text class="lab" x="{sx(x) + 8:.1f}" y="{sy(y):.1f}">'
             f'{text}</text>' for x, y, text in notes]
    return _svg(w, h, body, label)


def table(head: _t.Sequence[str], rows: _t.Sequence[_t.Sequence],
          empty: str = "") -> str:
    """A ``table.viz`` of ``rows`` (cell HTML) under the ``head`` names;
    a ``"<"`` prefix left-aligns a text column, as in a format spec.
    With no rows it is the ``empty`` note (HTML) instead."""
    if not rows:
        return f'<p class="note">{empty}</p>'
    cls = [' class="l"' if name.startswith("<") else "" for name in head]
    th = "".join(f"<th{c}>{name.lstrip('<')}</th>"
                 for c, name in zip(cls, head))
    body = "".join("<tr>" + "".join(f"<td{c}>{v}</td>"
                                    for c, v in zip(cls, row)) + "</tr>"
                   for row in rows)
    return (f'<table class="viz"><thead><tr>{th}</tr></thead>'
            f"<tbody>{body}</tbody></table>")


# ---------------------------------------------------------------------------
# Conformance dashboard (repro.sweep/v1 ledger + conformance summary)
# ---------------------------------------------------------------------------

def _fit_card(key: str, group: dict, records: list[dict]) -> str:
    """Fig. 11-style measured vs. model scatter for one fit group."""
    from repro.obs.conformance import group_key
    runs = sorted((r["conformance"] | {"run_id": r["run_id"]}
                   for r in records if group_key(r) == key),
                  key=lambda c: c["n"])
    if not runs:
        return ""
    nmax = runs[-1]["n"] * 1.05
    slope, icpt = group["fitted_slope"], group["fitted_intercept"]
    model, paper = group["model_slope"], group.get("paper_slope")
    ymax = max([c["measured_s"] for c in runs]
               + [icpt + slope * nmax, model * nmax]
               + ([paper * nmax] if paper else [])) * 1.08
    # Reference lines: paper (muted), model (slot 3), fit (slot 2).
    lines = ([(0, 0, nmax, paper * nmax, "var(--ink-3)", 1.5)]
             if paper else [])
    lines += [(0, 0, nmax, model * nmax, "var(--s3)", 2),
              (0, icpt, nmax, icpt + slope * nmax, "var(--s2)", 2)]
    anom_ids = {a["run_id"] for a in group["anomalies"]}
    points = [(c["n"], c["measured_s"], "var(--s1)",
               f"{c['run_id']}\nmeasured {_fmt_s(c['measured_s'])}\n"
               f"model {_fmt_s(c['predicted_s'])}\n"
               f"gap {_fmt_s(c['gap_s'])}  "
               f"model/measured {c['slowdown']:.3f}",
               c["run_id"] in anom_ids, c["run_id"]) for c in runs]
    paper_txt = (f" &middot; paper slope {paper * 1e9:.3f} ns/el"
                 if paper else "")
    return _card(_esc(key), f"fit {slope * 1e9:.3f} ns/el, R&sup2; "
                 f"{group['r2']:.4f} &middot; model {model * 1e9:.3f} "
                 f"ns/el{paper_txt}", svg=scatter_panel(
                     f"measured vs model, {key}", nmax, 0.0, ymax,
                     lines=lines, points=points))


def _fig8_card(records: list[dict]) -> str:
    """Fig. 8 missing-overhead growth (full end-to-end vs. related-work
    total, gap shaded) for the first blocking group with two sizes."""
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
    points = []
    for r, n, f_t, r_t in zip(recs, xs, full, rel):
        gap = r["measured"]["missing_overhead_s"]
        tip = (f"{r['run_id']}\nfull end-to-end {_fmt_s(f_t)}\n"
               f"related-work total {_fmt_s(r_t)}\n"
               f"missing overhead {_fmt_s(gap)} "
               f"({gap / f_t:.0%} of the run)" if f_t > 0 else r["run_id"])
        points += [(n, f_t, "var(--s1)", tip, False, None),
                   (n, r_t, "var(--s2)", tip, False, None)]
    mid = len(xs) // 2
    return _card(
        f"Missing overhead (Fig. 8) &mdash; {_esc(key)}", legend=_legend([
            ("linekey", "var(--s1)", "full end-to-end"),
            ("linekey", "var(--s2)",
             "related-work accounting (HtoD + DtoH + GPUSort)")]),
        svg=scatter_panel(
            "missing overhead growth", max(xs) * 1.05, 0.0,
            max(full) * 1.1, size=(520, 250),
            band=list(zip(xs, full)) + list(zip(xs, rel))[::-1],
            polylines=[(list(zip(xs, full)), "var(--s1)", 2, 1),
                       (list(zip(xs, rel)), "var(--s2)", 2, 1)],
            points=points, notes=[(xs[mid], (full[mid] + rel[mid]) / 2,
                                   "missing overhead")]))


def _residual_panel(records: list[dict]) -> str:
    """Stacked per-run residual bars: the model-vs-measured gap split by
    category along the critical path (segments sum exactly to the gap)."""
    title = "Model-vs-measured gap by category"
    if not records:
        return _card(title, note="no runs in the ledger")
    residuals = [r["conformance"]["residuals"] for r in records]
    cats = (_STACK_CATEGORIES + sorted({c for res in residuals for c in res}
                                       - set(_STACK_CATEGORIES)))[:8]
    bw, gap_px, h, mb = 22, 14, 260, 64   # 8 palette slots; overflow folds
    w = max(320, 70 + len(records) * (bw + gap_px))
    lo = min(0.0, min(sum(v for v in res.values() if v < 0)
                      for res in residuals))
    hi = max(0.0, max(sum(v for v in res.values() if v > 0)
                      for res in residuals))
    sy = _Scale(lo, hi * 1.05 if hi else 1.0, h - mb, _MT)
    body = _frame(_Scale(0.0, 1.0, _ML, w - _MR), sy, None, _fmt_s,
                  zero=True)
    for i, (rec, res) in enumerate(zip(records, residuals)):
        x = _ML + 10 + i * (bw + gap_px)
        folded = dict.fromkeys(cats, 0.0)
        for c, v in res.items():
            folded[c if c in cats else cats[-1]] += v
        ends = {True: 0.0, False: 0.0}      # stack top above / below 0
        for ci, (cat, v) in enumerate(folded.items()):
            if v == 0.0:
                continue
            base, ends[v > 0] = ends[v > 0], ends[v > 0] + v
            y_top, y_bot = sorted((sy(base + v), sy(base)))
            inset = 1 if y_bot - y_top > 3 else 0
            tip = (f"{rec['run_id']}\n{cat}: {_fmt_s(v)} of "
                   f"{_fmt_s(rec['conformance']['gap_s'])} gap")
            body.append(
                f'<rect x="{x}" y="{y_top + inset:.1f}" width="{bw}" '
                f'height="{max(0.5, y_bot - y_top - 2 * inset):.1f}" '
                f'rx="1.5" fill="var(--s{ci + 1})"{_tip(tip)}/>')
        label = f"{rec['point']['approach']} {_fmt_n(rec['point']['n'])}"
        cx, ty = x + bw / 2, h - mb + 14
        body.append(
            f'<text x="{cx:.1f}" y="{ty}" text-anchor="end" '
            f'transform="rotate(-35 {cx:.1f} {ty})">{_esc(label)}</text>')
    return _card(title, "each bar is one run&rsquo;s gap to the "
                 "lower-bound model, attributed along the causal critical "
                 "path; segments sum exactly to the gap",
                 _legend(("swatch", f"var(--s{i + 1})", _esc(c))
                         for i, c in enumerate(cats)),
                 _svg(w, h, body, "residuals by category"))


def _paper_band_note(summary: dict) -> str:
    bands = summary.get("paper_bands", {})
    parts = [
        "documented reproduction bands: "
        + ", ".join(f"Fig. 11 slope ({g} GPU) &plusmn;{tol:.0%}"
                    for g, tol in
                    sorted(bands.get("fig11_slope_rel", {}).items()))
        + "; "
        + ", ".join(f"Fig. 7 {k.split('_')[0]} &plusmn;{tol:.0%}"
                    for k, tol in
                    sorted(bands.get("fig7_transfer_rel", {}).items()))
    ]
    parts += [f"{_esc(key)}: model slope is {g['model_vs_paper']:.3f}"
              "&times; the paper&rsquo;s"
              for key, g in summary.get("groups", {}).items()
              if g.get("model_vs_paper")]
    return ('<p class="note">' + " &middot; ".join(parts) +
            " (asserted by tests/model/test_paper_band.py)</p>")


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
    from repro.obs.conformance import group_key
    records = list(records)
    n_anom = summary.get("n_anomalies", 0)
    worst_rel_gap = max(
        (abs(r["conformance"]["gap_s"]) / r["conformance"]["measured_s"]
         for r in records if r["conformance"]["measured_s"] > 0),
        default=0.0)
    tiles = [
        ("runs", f"{summary.get('n_runs', len(records))}", ""),
        ("fit groups", f"{summary.get('n_groups', 0)}", ""),
        ("anomalies", f"{n_anom}", "bad" if n_anom else "ok"),
        ("mean model/measured",
         f"{summary.get('mean_slowdown', 0.0):.3f}", ""),
        ("worst gap vs measured", f"{worst_rel_gap:.0%}", ""),
    ]

    def link(run_id: str) -> str:
        return f'<a href="#run-{_esc(run_id)}">{_esc(run_id)}</a>'

    anomalies = table(
        ["<run", "<group", "n", "measured", "fit expects", "deviation",
         "z", "<flags"],
        [[link(a["run_id"]), _esc(a["group"]), _fmt_n(a["n"]),
          _fmt_s(a["measured_s"]), _fmt_s(a["expected_s"]),
          f'{a["deviation_s"] / a["expected_s"] * 100:+.1f}%',
          f'{a["z"]:+.2f}', f'<span class="chip bad">&#9888; '
          f'{_esc(", ".join(a["flags"]))}</span>']
         for a in summary.get("anomalies", [])],
        '<span class="chip ok">&#10003; no anomalies</span> every run '
        f'within {summary.get("rel_tolerance", 0):.0%} of its group fit '
        f'(z-threshold {summary.get("z_threshold", 0):g})')
    ledger = table(
        ["<run", "<group", "n", "measured", "model", "gap",
         "model/measured", "missing overhead"],
        [[link(r["run_id"]), _esc(group_key(r)), _fmt_n(r["point"]["n"]),
          *(_fmt_s(r["conformance"][k])
            for k in ("measured_s", "predicted_s", "gap_s")),
          f'{r["conformance"]["slowdown"]:.3f}',
          _fmt_s(r["measured"]["missing_overhead_s"])] for r in records],
        "no runs in the ledger")
    details = []
    for r in records:
        cp, res = r["report"]["critical_path"], r["conformance"]["residuals"]
        details.append(
            f'<details id="run-{_esc(r["run_id"])}"><summary>'
            f'{_esc(r["run_id"])} &mdash; critical path {cp["n_spans"]} '
            f'spans, wait {_fmt_s(cp["wait"])}</summary>'
            + table(["<category", "on critical path", "gap attribution"],
                    [[_esc(c), _fmt_s(v), _fmt_s(res.get(c, 0.0))]
                     for c, v in cp["by_category"].items()])
            + "</details>")
    fig8 = _fig8_card(records)
    sections = [
        ("Measured vs. model (Fig. 11)", _legend([
            ("swatch", "var(--s1);border-radius:50%", "measured runs"),
            ("linekey", "var(--s2)", "fitted line"),
            ("linekey", "var(--s3)", "lower-bound model"),
            ("linekey", "var(--ink-3)", "paper slope (PLATFORM2)"),
            ("swatch", _RING, "anomalous run")]) + _cards(*(
                _fit_card(key, grp, records)
                for key, grp in summary.get("groups", {}).items()))),
        ("Missing overhead (Fig. 8)", fig8 and _cards(fig8)),
        ("Gap attribution", _cards(_residual_panel(records))),
        ("Anomalies", anomalies), ("Sweep ledger", ledger),
        ("Per-run critical paths",
         '<div class="runs">' + "".join(details) + "</div>")]
    if memory:
        sections += _memory_section(memory, "Memory occupancy", None)
    if flows:
        sections += _flows_section(flows, "Interconnect occupancy")[0]
    if trends:
        sections += _trend_section(trends, "Performance over time")
    return _page("Model-conformance dashboard", "Model-conformance dashboard",
                 "lower-bound model vs. measured makespans across the sweep"
                 "\nledger (Sec. IV-G / Fig. 11 methodology); gap "
                 "attribution along the\ncausal critical path", tiles,
                 sections + [(None, _paper_band_note(summary))])


def write_dashboard(records: _t.Sequence[dict], summary: dict,
                    path, trends: dict | None = None,
                    memory: dict | None = None,
                    flows: dict | None = None) -> None:
    """Render and write the dashboard to ``path``."""
    Path(path).write_text(render_dashboard(records, summary, trends,
                                           memory=memory, flows=flows))


# ---------------------------------------------------------------------------
# Memory observatory (repro.memory/v1 ledger documents)
# ---------------------------------------------------------------------------

def _memory_section(doc: dict, occupancy: str, pools_heading: str | None
                    ) -> list[tuple[str | None, str]]:
    """Page sections for one ``repro.memory/v1`` ledger: the stacked
    occupancy card (one band per pool, device pools first and pinned on
    top, each with a dashed high-watermark line) and its table twin."""
    entries, pools = doc.get("entries", []), doc.get("pools", {})
    order = sorted(pools, key=lambda p: (p == "pinned", p))
    times = sorted({0.0} | {e["t"] for e in entries})
    # Each pool's balance at every event time: its last entry so far.
    last = {(e["pool"], e["t"]): e["balance"] for e in entries}
    values: dict[str, list[float]] = {p: [] for p in order}
    for p in order:
        v = 0
        for t in times:
            v = last.get((p, t), v)
            values[p].append(v)
    rows, keys, series, hlines = [], [], [], []
    for slot, p in enumerate(order):
        d, color = pools[p], f"var(--s{slot % 8 + 1})"
        peak, leak = d.get("peak_bytes", 0), d.get("balance_bytes", 0)
        cap, head = d.get("capacity_bytes"), d.get("headroom_bytes")
        rows.append([_esc(p), _fmt_b(peak), _or_dash(_fmt_b, cap),
                     _or_dash(_fmt_b, head), d.get("n_allocs", 0),
                     d.get("n_frees", 0),
                     '<span class="chip ok">&#10003; balanced</span>'
                     if leak == 0 else '<span class="chip bad">&#9888; '
                     f'leak {_fmt_b(leak)}</span>'])
        keys.append(("swatch", color, _esc(p)))
        series.append((values[p], color, f"{p}\npeak {_fmt_b(peak)}"
                       + (f"\ncapacity {_fmt_b(cap)}" if cap is not None
                          else "")
                       + (f"\nheadroom {_fmt_b(head)}" if head is not None
                          else "")))
        hlines.append((peak, color, f"{p} high-watermark {_fmt_b(peak)}"))
    if entries and order:
        card = _card(
            "Memory occupancy", "stacked pool occupancy over simulated "
            "time; dashed lines mark each pool&rsquo;s high-watermark",
            _legend(keys + [("linekey", "var(--ink-3)",
                             "dashed: high-watermark")]),
            step_panel("memory occupancy over time", times, series,
                       yfmt=_fmt_b, size=(560, 260), stack=True,
                       fill=True, hlines=hlines))
    else:
        card = _card("Memory occupancy", note="empty ledger &mdash; no "
                     "allocations recorded")
    return [(occupancy, _cards(card)),
            (pools_heading, table(["<pool", "peak", "capacity", "headroom",
                                   "allocs", "frees", "<verdict"], rows,
                                  "no pools recorded"))]


def render_memory_dashboard(doc: dict, title: str = "") -> str:
    """Self-contained memory-observatory HTML for one
    ``repro.memory/v1`` ledger document (from
    :meth:`repro.obs.memory.MemoryLedger.to_dict`)."""
    pools = doc.get("pools", {}).values()
    balanced = doc.get("balanced", True)
    tiles = [("pools", f"{len(pools)}", ""),
             ("allocations", f"{sum(p.get('n_allocs', 0) for p in pools)}",
              ""),
             ("releases", f"{sum(p.get('n_frees', 0) for p in pools)}", ""),
             ("leak check", "balanced" if balanced else "LEAK",
              "ok" if balanced else "bad")]
    sub = _esc(title) if title else ("byte-exact allocation ledger over "
                                     "the simulated cudaMalloc / "
                                     "cudaMallocHost paths")
    return _page("Memory observatory", "Memory observatory", sub, tiles,
                 _memory_section(doc, "Occupancy", "Pools"))


def write_memory_dashboard(doc: dict, path, title: str = "") -> None:
    """Render and write the memory observatory to ``path``."""
    Path(path).write_text(render_memory_dashboard(doc, title=title))


# ---------------------------------------------------------------------------
# Interconnect observatory (repro.flows/v1 ledger documents)
# ---------------------------------------------------------------------------

def _flows_section(doc: dict, heading: str) -> tuple[list, dict, dict]:
    """Sections for one ``repro.flows/v1`` document (link and in-flight
    cards under ``heading``, link and contention tables), the per-link
    ``(capacity, peak rate, peak utilization)`` and the contention.
    Each analysis runs once: ``link_peaks`` would redo the timelines."""
    from repro.obs.flows import (_utilization, attribute_contention,
                                 concurrency_series, link_timelines)
    timelines = link_timelines(doc)
    util = _utilization(doc, timelines)
    contention = attribute_contention(doc)
    cards, peaks = [], {}
    for name, pts in timelines.items():
        cap = doc.get("capacities", {}).get(name)
        peak = max((v for _, v in pts), default=0.0)
        peaks[name] = (cap, peak, max((u for _, u in util.get(name, [])),
                                      default=0.0))
        if not pts:
            cards.append(_card(_esc(name),
                               note="no flows crossed this link"))
            continue
        tip = (f"{name}\npeak {_fmt_rate(peak)}"
               + (f"\ncapacity {_fmt_rate(cap)}"
                  f"\npeak utilization {peak / cap:.0%}" if cap else ""))
        cards.append(_card(
            _esc(name), "granted bandwidth over simulated time; dashed "
            "line marks link capacity", svg=step_panel(
                f"granted bandwidth on {name}", [t for t, _ in pts],
                [([v for _, v in pts], "var(--s1)", tip)], yfmt=_fmt_rate,
                fill=True, hlines=[(cap, "var(--ink-3)",
                                    f"{name} capacity {_fmt_rate(cap)}")]
                if cap else [])))
    conc = concurrency_series(doc)
    counts = [c for _, c in conc]
    cards.append(_card(
        "Flows in flight", "concurrent transfers over simulated time",
        svg=step_panel(
            "flows in flight over time", [t for t, _ in conc],
            [(counts, "var(--s3)", f"peak {max(counts)} concurrent flows")],
            yfmt=lambda t: f"{t:.0f}", ints=True, pad=1.15))
        if conc else _card("Flows in flight", note="no flows recorded"))
    rows = []
    for f in sorted(contention.get("flows", []),
                    key=lambda f: (-f["slowdown_s"], f["id"]))[:15]:
        charges = sorted(((k, v) for k, v in f["parts"].items()
                          if k != "isolation" and v > 0.0),
                         key=lambda kv: -kv[1])
        rows.append([f["id"], _esc(f["label"]),
                     *(_fmt_s(f[k]) for k in ("duration_s", "isolation_s",
                                              "slowdown_s")),
                     ", ".join(f"{_esc(k)} {_fmt_s(v)}"
                               for k, v in charges[:3]) or "&mdash;"])
    links = [[_esc(name), _or_dash(_fmt_rate, cap), _fmt_rate(peak),
              f"{u:.0%}"] for name, (cap, peak, u) in sorted(peaks.items())]
    sections = [
        (heading, _cards(*cards)),
        ("Links", table(["<link", "capacity", "peak rate",
                         "peak utilization"], links, "no links recorded")),
        ("Top contended flows", table(
            ["id", "<flow", "duration", "isolation", "slowdown",
             "<charged to"], rows, "no completed flows recorded"))]
    return sections, peaks, contention


def render_flows_dashboard(doc: dict, title: str = "") -> str:
    """Self-contained interconnect-observatory HTML for one
    ``repro.flows/v1`` ledger document (from
    :meth:`repro.obs.flows.FlowLedger.to_dict`)."""
    sections, peaks, contention = _flows_section(doc, "Link occupancy")
    moved = sum(f["moved"] for f in doc.get("flows", [])
                if f.get("moved") is not None)
    peak_util = max((u for _, _, u in peaks.values()), default=0.0)
    tiles = [("flows", f"{doc.get('n_flows', 0)}", ""),
             ("bytes moved", _fmt_b(moved), ""),
             ("links", f"{len(peaks)}", ""),
             ("peak link utilization", f"{peak_util:.0%}",
              "bad" if peak_util >= 1.0 else ""),
             ("contention", _fmt_s(contention["total_contention_s"]), "")]
    sub = _esc(title) if title else ("per-flow bandwidth grants from the "
                                     "max-min fair fluid-flow network")
    return _page("Interconnect observatory", "Interconnect observatory",
                 sub, tiles, sections)


def write_flows_dashboard(doc: dict, path, title: str = "") -> None:
    """Render and write the interconnect observatory to ``path``."""
    Path(path).write_text(render_flows_dashboard(doc, title=title))


# ---------------------------------------------------------------------------
# Multi-tenant service (repro.service/v1 verdicts)
# ---------------------------------------------------------------------------

def _service_jobs_panel(verdict: dict) -> str:
    """Tenant-latency timeline: one horizontal bar per job from arrival
    to completion, the queued prefix hollow and the service suffix
    solid, rows grouped by tenant (one palette slot each)."""
    jobs = verdict.get("jobs", [])
    if not jobs:
        return _card("Job latencies", note="no jobs completed")
    tenants = list(verdict.get("tenants", {}))
    slot_of = {t: i % 8 + 1 for i, t in enumerate(tenants)}
    ordered = sorted(jobs, key=lambda j: (tenants.index(j["tenant"]),
                                          j["arrival_s"], j["job_id"]))
    row_h, w = 14, 560
    h = _MT + row_h * len(ordered) + _MB
    sx = _Scale(0.0, max(j["end_s"] for j in jobs) or 1.0, _ML, w - _MR)
    body = _frame(sx, _Scale(0.0, 1.0, h - _MB, _MT), _fmt_s)
    for i, j in enumerate(ordered):
        y, slot = _MT + i * row_h, slot_of[j["tenant"]]
        if i == 0 or j["tenant"] != ordered[i - 1]["tenant"]:
            body.append(f'<text class="lab" x="{_ML - 6}" '
                        f'y="{y + row_h - 4:.1f}" text-anchor="end">'
                        f'{_esc(j["tenant"])}</text>')
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
            f'fill="var(--s{slot})" opacity="0.8"{_tip(tip)}/>')
        if not j.get("slo_ok", True) and j.get("slo_s") is not None:
            body.append(f'<text x="{x2 + 4:.1f}" y="{y + row_h - 4:.1f}" '
                        f'fill="var(--critical)">&#9888;</text>')
    return _card("Per-tenant job latencies", "each bar spans arrival to "
                 "completion; the hollow prefix is admission queueing, "
                 "the solid part is service",
                 _legend([("swatch", f"var(--s{slot_of[t]})", _esc(t))
                          for t in tenants]
                         + [("linekey", "var(--ink-3)",
                             "hollow prefix: queued")]),
                 _svg(w, h, body, "per-tenant job latency timeline"))


def render_service_dashboard(verdict: dict, title: str = "") -> str:
    """Self-contained multi-tenant service HTML for one
    ``repro.service/v1`` verdict (from
    :func:`repro.service.verdict.build_verdict`)."""
    jain = verdict.get("fairness", {}).get("jain_latency_index", 1.0)
    hit = verdict.get("slo", {}).get("hit_rate")
    ctl = verdict.get("controller")
    tiles = [("allocator", str(verdict.get("allocator", "?")), ""),
             ("tenants", f"{verdict.get('n_tenants', 0)}", ""),
             ("jobs", f"{verdict.get('n_jobs', 0)}", ""),
             ("Jain fairness", f"{jain:.4f}", ""),
             ("SLO hit rate", f"{hit:.0%}" if hit is not None else "n/a",
              "" if hit is None else ("ok" if hit >= 1.0 else "bad"))]
    if ctl is not None:
        tiles.append(("reclaimed / epoch",
                      f"{ctl['mean_reclaimed_fraction']:.0%}", ""))
    sub = _esc(title) if title else (
        "per-tenant QoS under the "
        f"{_esc(verdict.get('allocator', '?'))} bandwidth allocator")
    tenants = table(
        ["<tenant", "priority", "share", "jobs", "p50 latency",
         "p99 latency", "mean queued", "SLO hits", "bytes moved"],
        [[_esc(name), t["priority"], f'{t["share"]:g}', t["n_jobs"],
          *(_fmt_s(t[k]) for k in ("p50_latency_s", "p99_latency_s",
                                   "mean_queued_s")),
          f'{t["slo_hit_rate"]:.0%} of {t["slo_jobs"]}'
          if t.get("slo_hit_rate") is not None else "&mdash;",
          _fmt_b(t["bytes_moved"])]
         for name, t in verdict.get("tenants", {}).items()],
        "no tenants recorded")
    return _page("Sort service", "Multi-tenant sort service", sub, tiles,
                 [("Job latencies", _cards(_service_jobs_panel(verdict))),
                  ("Tenants", tenants)])


def write_service_dashboard(verdict: dict, path, title: str = "") -> None:
    """Render and write the service dashboard to ``path``."""
    Path(path).write_text(render_service_dashboard(verdict, title=title))


# ---------------------------------------------------------------------------
# Trend observatory (archive history; repro.trends/v1 documents)
# ---------------------------------------------------------------------------

def _trend_section(trends: dict, heading: str
                   ) -> list[tuple[str | None, str]]:
    """Trend sections: per (fingerprint, metric) a history card (raw
    series, EWMA, dashed changepoint markers, critical rings on
    regime-local anomalies) and a table row whose sparkline marks
    changepoints as ``|``."""
    from repro.reporting.series import sparkline
    cards, rows = [], []
    for fp, blk in trends.get("fingerprints", {}).items():
        name = blk.get("label") or fp
        for metric, tr in blk.get("metrics", {}).items():
            vals, smooth = tr["values"], tr["ewma"]
            if not vals:
                continue
            fmt = _fmt_s if metric.endswith("_s") else _fmt_n
            cps = {c["index"]: c for c in tr["changepoints"]}
            anomalies = set(tr["anomalies"])
            lo, hi = min(vals + smooth), max(vals + smooth)
            if hi <= lo:               # flat series still gets a band
                lo -= max(abs(lo), 1.0) * 0.05
                hi += max(abs(hi), 1.0) * 0.05
            pad = (hi - lo) * 0.08
            svg = scatter_panel(
                f"{metric} history, {name}", max(1, len(vals) - 1),
                lo - pad, hi + pad, size=(380, 200), yfmt=fmt,
                vlines=[(i, f"changepoint at run {i + 1}\nbefore "
                            f"{fmt(c['before'])} -> after "
                            f"{fmt(c['after'])}\nratio {c['ratio']:.2f}x, "
                            f"score {c['score']:.1f} sigma")
                        for i, c in cps.items()],
                polylines=[(list(enumerate(smooth)), "var(--s2)", 1.5, 0.7),
                           (list(enumerate(vals)), "var(--s1)", 2, 1)],
                points=[(i, v, "var(--s1)",
                         f"run {i + 1}/{len(vals)}\n{metric} = {fmt(v)}"
                         + (" &#9888; anomaly within its regime"
                            if i in anomalies else ""), i in anomalies,
                         None) for i, v in enumerate(vals)])
            bits = [f"median {fmt(tr['median'])}",
                    f"{len(cps)} changepoint(s)"]
            flags = ([f"{len(tr['changepoints'])} step(s)"]
                     if tr["changepoints"] else [])
            if anomalies:
                bits.append(f"{len(anomalies)} anomaly flag(s)")
                flags.append(f"{len(tr['anomalies'])} anomaly")
            ratchet = tr.get("ratchet")
            extra = ""
            if ratchet:
                flags.append("re-baseline proposed")
                extra = (f'<p class="sub"><span class="chip bad">&#9888; '
                         f'{_esc(ratchet["message"])}</span></p>')
            cards.append(_card(f"{_esc(metric)} &mdash; {_esc(name)}",
                               " &middot; ".join(bits), extra, svg))
            spark = sparkline(vals, [c["index"] for c in tr["changepoints"]])
            rows.append([
                _esc(name), _esc(metric), tr["n"],
                f'<span style="font-family:monospace">{_esc(spark)}</span>',
                fmt(tr["median"]), fmt(tr["last"]),
                f'<span class="chip bad">&#9888; '
                f'{_esc("; ".join(flags))}</span>' if flags else
                '<span class="chip ok">&#10003; stable</span>'])
    alpha = trends.get("params", {}).get("ewma_alpha", 0.3)
    return [(heading, _legend([
                ("linekey", "var(--s1)", "archived runs"),
                ("linekey", "var(--s2)", f"EWMA (&alpha; {alpha:g})"),
                ("linekey", "var(--critical)", "changepoint"),
                ("swatch", _RING, "anomaly flag")]) + _cards(*cards)),
            ("Series overview", table(
                ["<workload", "<metric", "runs", "<history", "median",
                 "last", "<verdict"], rows, "no archived series yet"))]


def render_trend_dashboard(trends: dict) -> str:
    """Self-contained trend-observatory HTML for one ``repro.trends/v1``
    document (from :func:`repro.obs.trends.trend_summary`)."""
    n_cps = trends.get("n_changepoints", 0)
    n_props = trends.get("n_proposals", 0)
    tiles = [("workloads", f"{trends.get('n_fingerprints', 0)}", ""),
             ("metric series", f"{trends.get('n_series', 0)}", ""),
             ("changepoints", f"{n_cps}", "bad" if n_cps else "ok"),
             ("re-baseline proposals", f"{n_props}",
              "bad" if n_props else "ok")]
    return _page("Trend observatory", "Trend observatory",
                 "per-metric history over the run archive, grouped by\n"
                 "workload fingerprint; steps detected by robust "
                 "(MAD-scored) binary\nsegmentation, anomalies flagged "
                 "regime-locally", tiles,
                 _trend_section(trends, "Metric history"))


def write_trend_dashboard(trends: dict, path) -> None:
    """Render and write the trend observatory to ``path``."""
    Path(path).write_text(render_trend_dashboard(trends))
