"""The observability dashboard: sparklines, heatmap, span timelines.

Everything the observability layer produces — the tracer's JSONL
events, the :class:`~repro.obs.timeline.TimelineSampler`'s metric
series, the :class:`~repro.obs.availability.AvailabilityAccountant`'s
windows — renders into **one self-contained HTML file** with inline
SVG, no external assets, no third-party libraries:

* **sparklines** — per-tick counter rates (and gauge values) from a
  timeline dump; without one, per-bucket event rates derived from the
  trace itself;
* **availability heatmap** — fragment × time buckets, each cell shaded
  by the fraction of the bucket the fragment was write-unavailable
  (sequential single-hue ramp: light means available, dark means a
  full-bucket outage), hover names the causes;
* **span timeline** — the first few hundred lineage spans
  (``span.begin``/``span.end``) as horizontal bars, colored by
  terminal status;
* the accountant's SLO summary table per run.

``repro dashboard --html`` writes the file; ``repro dashboard
--serve`` wraps the same renderer in a stdlib :mod:`http.server` with
a server-sent-events endpoint that pings when the trace file grows, so
a browser tab tracks a running experiment live (the page re-renders
from the current file contents on every ping).
"""

from __future__ import annotations

import html as _html
import http.server
import json
import os
import time
from collections.abc import Callable
from typing import Any

from repro.obs import taxonomy
from repro.obs.availability import AvailabilityAccountant, account_events
from repro.obs.summary import read_trace

#: Time buckets across the heatmap / derived-rate x-axis.
HEATMAP_BUCKETS = 60

#: Sparklines rendered (top counters by final value, plus gauges).
MAX_SPARKLINES = 24

#: Lineage spans drawn on the timeline (earliest first).
MAX_SPANS = 200

#: Sequential blue ramp, light -> dark (palette steps 100..700): cell
#: shade encodes unavailable fraction of the bucket.
_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

_STATUS_COLOR = {
    "committed": "var(--status-good)",
    "aborted": "var(--status-critical)",
    "timed_out": "var(--status-serious)",
    "rejected": "var(--status-warning)",
}


# -- data assembly ---------------------------------------------------------


def build_dashboard_data(
    events: list[dict[str, Any]],
    timeline_records: dict[str, dict[str, list[dict[str, Any]]]] | None = None,
) -> dict[str, Any]:
    """Assemble the render-ready dashboard payload from raw records.

    ``events`` is a materialized trace (dict records in file order,
    possibly spanning several ``run`` contexts); ``timeline_records``
    is the shape :func:`repro.obs.timeline.load_jsonl` returns.
    """
    runs: dict[str, list[dict[str, Any]]] = {}
    for event in events:
        runs.setdefault(str(event.get("run", "")), []).append(event)
    times = [
        e["t"] for e in events if isinstance(e.get("t"), (int, float))
    ]
    t_min = min(times, default=0.0)
    t_max = max(times, default=0.0)
    accountants = {
        run: account_events(run_events)
        for run, run_events in sorted(runs.items())
    }
    return {
        "meta": {
            "events": len(events),
            "runs": sorted(runs),
            "t_min": t_min,
            "t_max": t_max,
        },
        "series": _build_series(events, timeline_records, t_min, t_max),
        "heatmap": _build_heatmap(accountants, t_min, t_max),
        "spans": _build_spans(events),
        "availability": {
            run: accountant.summary()
            for run, accountant in accountants.items()
        },
    }


def _build_series(
    events: list[dict[str, Any]],
    timeline_records: dict[str, dict[str, list[dict[str, Any]]]] | None,
    t_min: float,
    t_max: float,
) -> list[dict[str, Any]]:
    """Sparkline series: timeline dump when given, event rates otherwise."""
    series: list[dict[str, Any]] = []
    if timeline_records:
        counters = timeline_records.get("counter", {})
        ranked = sorted(
            counters.items(),
            key=lambda item: (-(item[1][-1].get("value") or 0), item[0]),
        )
        for name, records in ranked[:MAX_SPARKLINES]:
            series.append(
                {
                    "name": name,
                    "kind": "counter-rate",
                    "points": [
                        [r["t"], r.get("delta", 0)] for r in records
                    ],
                }
            )
        remaining = MAX_SPARKLINES - len(series)
        for name, records in sorted(
            timeline_records.get("gauge", {}).items()
        )[: max(remaining, 0)]:
            series.append(
                {
                    "name": name,
                    "kind": "gauge",
                    "points": [
                        [r["t"], r.get("value", 0)] for r in records
                    ],
                }
            )
        return series
    # No timeline dump: derive per-bucket event rates per type family.
    span = max(t_max - t_min, 1e-9)
    width = span / HEATMAP_BUCKETS
    families: dict[str, list[int]] = {}
    for event in events:
        t = event.get("t")
        etype = event.get("type")
        if not isinstance(t, (int, float)) or not isinstance(etype, str):
            continue
        family = etype.split(".", 1)[0]
        buckets = families.setdefault(family, [0] * HEATMAP_BUCKETS)
        index = min(int((t - t_min) / width), HEATMAP_BUCKETS - 1)
        buckets[index] += 1
    ranked_families = sorted(
        families.items(), key=lambda item: (-sum(item[1]), item[0])
    )
    for family, buckets in ranked_families[:MAX_SPARKLINES]:
        series.append(
            {
                "name": f"events: {family}.*",
                "kind": "event-rate",
                "points": [
                    [t_min + (i + 0.5) * width, count]
                    for i, count in enumerate(buckets)
                ],
            }
        )
    return series


def _build_heatmap(
    accountants: dict[str, AvailabilityAccountant],
    t_min: float,
    t_max: float,
) -> dict[str, Any]:
    """Fragment x time-bucket write-unavailability fractions."""
    span = max(t_max - t_min, 1e-9)
    width = span / HEATMAP_BUCKETS
    multi = len(accountants) > 1
    rows = []
    for run, accountant in accountants.items():
        fragments = sorted(accountant.fragment_agent) or sorted(
            {w.fragment for w in accountant.windows}
        )
        for fragment in fragments:
            cells = [0.0] * HEATMAP_BUCKETS
            causes: list[set[str]] = [set() for _ in range(HEATMAP_BUCKETS)]
            for window in accountant.windows:
                if window.fragment != fragment:
                    continue
                if window.dimension != "write":
                    continue
                end = window.end if window.end is not None else t_max
                first = max(int((window.start - t_min) / width), 0)
                last = min(
                    int((end - t_min) / width), HEATMAP_BUCKETS - 1
                )
                for index in range(first, last + 1):
                    lo = t_min + index * width
                    hi = lo + width
                    overlap = min(end, hi) - max(window.start, lo)
                    if overlap > 0:
                        cells[index] = min(
                            cells[index] + overlap / width, 1.0
                        )
                        causes[index].update(window.causes)
            rows.append(
                {
                    "label": f"{fragment} ({run})" if multi else fragment,
                    "cells": [round(c, 4) for c in cells],
                    "causes": [sorted(c) for c in causes],
                }
            )
    return {
        "t_min": t_min,
        "t_max": t_max,
        "buckets": HEATMAP_BUCKETS,
        "rows": rows,
    }


def _build_spans(events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Pair span.begin / span.end into drawable lineage bars."""
    open_spans: dict[str, dict[str, Any]] = {}
    spans: list[dict[str, Any]] = []
    for event in events:
        etype = event.get("type")
        txn = event.get("txn")
        if txn is None:
            continue
        if etype == taxonomy.SPAN_BEGIN:
            open_spans[str(txn)] = {
                "txn": str(txn),
                "agent": event.get("agent"),
                "start": event.get("t", 0.0),
            }
        elif etype == taxonomy.SPAN_END:
            span = open_spans.pop(str(txn), None)
            if span is None:
                continue
            span["end"] = event.get("t", span["start"])
            span["status"] = str(event.get("status", "")).lower()
            spans.append(span)
            if len(spans) >= MAX_SPANS:
                break
    return spans


# -- HTML rendering --------------------------------------------------------

_CSS = """\
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --status-good: #0ca30c;
  --status-warning: #fab219;
  --status-serious: #ec835a;
  --status-critical: #d03b3b;
  --border: rgba(11,11,11,0.10);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --border: rgba(255,255,255,0.10);
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --gridline: #2c2c2a;
  --baseline: #383835;
  --series-1: #3987e5;
  --border: rgba(255,255,255,0.10);
}
.viz-root h1 { font-size: 18px; margin: 0 0 4px; }
.viz-root h2 { font-size: 14px; margin: 24px 0 8px; }
.viz-root .meta { color: var(--text-secondary); font-size: 12px; }
.viz-root .grid {
  display: grid;
  grid-template-columns: repeat(auto-fill, minmax(220px, 1fr));
  gap: 12px;
}
.viz-root .card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 6px;
  padding: 10px 12px;
}
.viz-root .card .name {
  font-size: 11px;
  color: var(--text-secondary);
  overflow: hidden;
  text-overflow: ellipsis;
  white-space: nowrap;
}
.viz-root .card .last {
  font-size: 16px;
  color: var(--text-primary);
}
.viz-root svg { display: block; }
.viz-root table {
  border-collapse: collapse;
  font-size: 12px;
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 6px;
}
.viz-root th, .viz-root td {
  padding: 4px 10px;
  text-align: right;
  border-bottom: 1px solid var(--gridline);
  font-variant-numeric: tabular-nums;
}
.viz-root th:first-child, .viz-root td:first-child { text-align: left; }
.viz-root th {
  color: var(--text-secondary);
  font-weight: 500;
  text-align: right;
}
.viz-root .axis-label { font-size: 10px; fill: var(--text-muted); }
"""


def _spark_svg(points: list[list[float]], width: int = 200,
               height: int = 36) -> str:
    """One 2px sparkline polyline over an invisible plot box."""
    if not points:
        return f'<svg width="{width}" height="{height}"></svg>'
    xs = [p[0] for p in points]
    ys = [float(p[1] or 0) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    pad = 2
    coords = " ".join(
        f"{pad + (x - x_lo) / x_span * (width - 2 * pad):.1f},"
        f"{height - pad - (y - y_lo) / y_span * (height - 2 * pad):.1f}"
        for x, y in zip(xs, ys)
    )
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="var(--baseline)" stroke-width="1"/>'
        f'<polyline points="{coords}" fill="none" '
        f'stroke="var(--series-1)" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round"/>'
        "</svg>"
    )


def _heatmap_svg(heatmap: dict[str, Any]) -> str:
    """Fragment x time cells, sequential blue: darker = more unavailable."""
    rows = heatmap["rows"]
    if not rows:
        return '<p class="meta">no fragments to plot</p>'
    buckets = heatmap["buckets"]
    cell_w, cell_h, gap, label_w = 14, 18, 2, 110
    width = label_w + buckets * (cell_w + gap)
    height = len(rows) * (cell_h + gap) + 16
    t_min, t_max = heatmap["t_min"], heatmap["t_max"]
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    for r, row in enumerate(rows):
        y = r * (cell_h + gap)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + cell_h / 2 + 3}" '
            f'text-anchor="end" class="axis-label">'
            f"{_html.escape(str(row['label']))}</text>"
        )
        for c, value in enumerate(row["cells"]):
            shade = _RAMP[min(int(value * (len(_RAMP) - 1) + 0.5),
                              len(_RAMP) - 1)]
            causes = row["causes"][c]
            lo = t_min + c / buckets * (t_max - t_min)
            hi = t_min + (c + 1) / buckets * (t_max - t_min)
            tip = (
                f"{row['label']} t=[{lo:.1f}, {hi:.1f}): "
                f"{value * 100:.0f}% unavailable"
                + (f" ({', '.join(causes)})" if causes else "")
            )
            parts.append(
                f'<rect x="{label_w + c * (cell_w + gap)}" y="{y}" '
                f'width="{cell_w}" height="{cell_h}" rx="2" '
                f'fill="{shade}"><title>{_html.escape(tip)}</title></rect>'
            )
    axis_y = len(rows) * (cell_h + gap) + 12
    parts.append(
        f'<text x="{label_w}" y="{axis_y}" class="axis-label">'
        f"t={t_min:.0f}</text>"
        f'<text x="{width - 4}" y="{axis_y}" text-anchor="end" '
        f'class="axis-label">t={t_max:.0f}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _spans_svg(spans: list[dict[str, Any]], t_min: float,
               t_max: float) -> str:
    """Horizontal lineage-span bars colored by terminal status."""
    if not spans:
        return '<p class="meta">no lineage spans in trace</p>'
    bar_h, gap, label_w, plot_w = 10, 2, 70, 720
    span_t = (t_max - t_min) or 1.0
    height = len(spans) * (bar_h + gap) + 16
    parts = [
        f'<svg width="{label_w + plot_w}" height="{height}" role="img">'
    ]
    for i, span in enumerate(spans):
        y = i * (bar_h + gap)
        x0 = label_w + (span["start"] - t_min) / span_t * plot_w
        x1 = label_w + (span["end"] - t_min) / span_t * plot_w
        color = _STATUS_COLOR.get(span.get("status", ""), "var(--series-1)")
        tip = (
            f"{span['txn']} [{span.get('status', '?')}] "
            f"t=[{span['start']:.2f}, {span['end']:.2f}] "
            f"agent={span.get('agent')}"
        )
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_h - 1}" '
            f'text-anchor="end" class="axis-label">'
            f"{_html.escape(str(span['txn']))}</text>"
            f'<rect x="{x0:.1f}" y="{y}" '
            f'width="{max(x1 - x0, 1.5):.1f}" height="{bar_h}" rx="2" '
            f'fill="{color}"><title>{_html.escape(tip)}</title></rect>'
        )
    axis_y = len(spans) * (bar_h + gap) + 12
    parts.append(
        f'<text x="{label_w}" y="{axis_y}" class="axis-label">'
        f"t={t_min:.0f}</text>"
        f'<text x="{label_w + plot_w}" y="{axis_y}" text-anchor="end" '
        f'class="axis-label">t={t_max:.0f}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _availability_table(availability: dict[str, Any]) -> str:
    rows = []
    for run, summary in sorted(availability.items()):
        for fragment, dims in sorted(summary.get("fragments", {}).items()):
            write = dims["write"]
            read = dims["read"]
            rows.append(
                "<tr>"
                f"<td>{_html.escape(run or '(default)')}</td>"
                f"<td>{_html.escape(fragment)}</td>"
                f"<td>{write['availability'] * 100:.2f}%</td>"
                f"<td>{read['availability'] * 100:.2f}%</td>"
                f"<td>{write['windows']}</td>"
                f"<td>{write['longest_window']:.2f}</td>"
                f"<td>{_html.escape(', '.join(write['by_cause']) or '—')}"
                "</td></tr>"
            )
    if not rows:
        return '<p class="meta">no availability windows recorded</p>'
    return (
        "<table><thead><tr><th>run</th><th>fragment</th>"
        "<th>write avail</th><th>read avail</th><th>windows</th>"
        "<th>longest</th><th>causes</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def render_html(
    data: dict[str, Any], title: str = "repro dashboard",
    live: bool = False,
) -> str:
    """Render the payload into one self-contained HTML document."""
    meta = data["meta"]
    cards = []
    for series in data["series"]:
        points = series["points"]
        last = points[-1][1] if points else 0
        cards.append(
            '<div class="card">'
            f'<div class="name" title="{_html.escape(series["name"])}">'
            f"{_html.escape(series['name'])}</div>"
            f'<div class="last">{last:g}</div>'
            + _spark_svg(points)
            + "</div>"
        )
    sse = (
        "<script>\n"
        "const es = new EventSource('/events');\n"
        "es.onmessage = () => location.reload();\n"
        "</script>"
        if live
        else ""
    )
    run_list = ", ".join(r or "(default)" for r in meta["runs"]) or "—"
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body class="viz-root">
<h1>{_html.escape(title)}</h1>
<p class="meta">{meta['events']} events over
t=[{meta['t_min']:.1f}, {meta['t_max']:.1f}] · runs: {_html.escape(run_list)}</p>
<h2>Availability accountant</h2>
{_availability_table(data['availability'])}
<h2>Write availability by fragment (darker = more of the bucket unavailable)</h2>
{_heatmap_svg(data['heatmap'])}
<h2>Metric sparklines</h2>
<div class="grid">{''.join(cards) or '<p class="meta">no series</p>'}</div>
<h2>Lineage spans (first {MAX_SPANS})</h2>
{_spans_svg(data['spans'], meta['t_min'], meta['t_max'])}
{sse}
</body>
</html>
"""


def dashboard_from_trace(
    trace_path: str,
    timeline_path: str | None = None,
    title: str | None = None,
    live: bool = False,
) -> str:
    """Read files, assemble the payload, render the HTML document."""
    from repro.obs.timeline import load_jsonl

    events = list(read_trace(trace_path))
    timeline_records = (
        load_jsonl(timeline_path) if timeline_path is not None else None
    )
    data = build_dashboard_data(events, timeline_records)
    return render_html(
        data, title=title or f"repro dashboard — {trace_path}", live=live
    )


# -- live server -----------------------------------------------------------


class ResponseHandler(http.server.BaseHTTPRequestHandler):
    """The response writer of both HTTP surfaces (this dashboard and
    the front door, :mod:`repro.serve.app`): **one segment** per reply.

    Status line, headers and body leave in a single write on a
    ``TCP_NODELAY`` socket.  Sent as two on a Nagle socket, the body
    waits ~40 ms for the client's delayed ACK of the headers.
    """

    disable_nagle_algorithm = True

    def log_message(self, *args: Any) -> None:
        pass  # quiet: the dashboard and the metrics are the output

    def send_body(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # end_headers() with the body riding in the same write.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, default=str).encode()
        self.send_body(code, body, "application/json")

    def send_html(self, page: str) -> None:
        self.send_body(200, page.encode(), "text/html; charset=utf-8")

    def stream_events(
        self, probe: Callable[[], Any], interval: float, max_pings: int | None
    ) -> None:
        """Server-sent events: ``data: grew`` whenever ``probe()`` changes.

        The page's inline script reloads on each ping.  Ends after
        ``max_pings`` (tests), when the client goes away, or when the
        probe raises ``OSError`` (the watched file vanished).
        """
        try:
            # Read before the headers go: whatever happens after the
            # client sees the stream open must produce a ping.
            last = probe()
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.end_headers()
            # An EventSource blocks until the status line arrives: it
            # must not sit in a write buffer waiting for the first ping.
            self.wfile.flush()
            pings = 0
            while max_pings is None or pings < max_pings:
                time.sleep(interval)
                now = probe()
                if now != last:
                    last = now
                    self.wfile.write(b"data: grew\n\n")
                    self.wfile.flush()
                    pings += 1
        except OSError:
            pass


def serve_dashboard(
    trace_path: str,
    timeline_path: str | None = None,
    host: str = "127.0.0.1",
    port: int = 8377,
    poll_interval: float = 1.0,
    max_pings: int | None = None,
):  # pragma: no cover - exercised via handler unit tests
    """Serve the dashboard over stdlib HTTP with SSE file-watch reloads.

    ``GET /`` renders the current file contents; ``GET /data.json``
    returns the payload; ``GET /events`` holds a server-sent-events
    stream that pings whenever the trace file grows (the page's inline
    script reloads on ping).  ``max_pings`` bounds the SSE loop for
    tests.  Returns the configured ``ThreadingHTTPServer`` — call
    ``serve_forever()`` on it (the CLI does).
    """

    class Handler(ResponseHandler):
        def do_GET(self) -> None:
            if self.path in ("/", "/index.html"):
                self.send_html(
                    dashboard_from_trace(trace_path, timeline_path, live=True)
                )
            elif self.path == "/data.json":
                from repro.obs.timeline import load_jsonl

                events = list(read_trace(trace_path))
                records = (
                    load_jsonl(timeline_path) if timeline_path else None
                )
                self.send_json(200, build_dashboard_data(events, records))
            elif self.path == "/events":
                self.stream_events(
                    lambda: os.path.getsize(trace_path),
                    poll_interval,
                    max_pings,
                )
            else:
                self.send_json(404, {"error": f"no such page {self.path!r}"})

    server = http.server.ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    return server
