"""Text tables, figure series, ASCII Gantt timelines, and the
self-contained HTML conformance dashboard."""

from repro.reporting.chrometrace import to_chrome_trace, write_chrome_trace
from repro.reporting.gantt import render_gantt
from repro.reporting.html import (render_dashboard,
                                  render_flows_dashboard,
                                  render_memory_dashboard,
                                  render_service_dashboard,
                                  render_trend_dashboard,
                                  write_dashboard,
                                  write_flows_dashboard,
                                  write_memory_dashboard,
                                  write_service_dashboard,
                                  write_trend_dashboard)
from repro.reporting.live import (format_bytes, render_bar,
                                  render_plain_line, render_snapshot)
from repro.reporting.series import FigureSeries, crossover, sparkline
from repro.reporting.table import (format_count, format_seconds,
                                   render_metrics_table, render_table)

__all__ = [
    "render_table", "format_seconds", "format_count",
    "render_metrics_table",
    "FigureSeries", "crossover", "sparkline",
    "render_gantt", "to_chrome_trace", "write_chrome_trace",
    "render_dashboard", "write_dashboard",
    "render_trend_dashboard", "write_trend_dashboard",
    "render_snapshot", "render_plain_line", "render_bar", "format_bytes",
    "render_memory_dashboard", "write_memory_dashboard",
    "render_flows_dashboard", "write_flows_dashboard",
    "render_service_dashboard", "write_service_dashboard",
]
