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
--serve`` wraps the same renderer in :class:`HttpServer` (the front
door's server too) with a server-sent-events endpoint that pings when the trace file grows, so
a browser tab tracks a running experiment live (the page re-renders
from the current file contents on every ping).
"""

from __future__ import annotations

import asyncio
import functools
import html as _html
import json
import os
import threading
from collections.abc import Awaitable, Callable
from http import HTTPStatus
from typing import Any

from repro.obs import taxonomy
from repro.obs.availability import AvailabilityAccountant, account_events
from repro.obs.summary import read_trace
from repro.runtime.tcp import close_listener

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


JSON = "application/json"
HTML = "text/html; charset=utf-8"

#: A request head longer than this is answered 431, a body declared
#: longer than this 413; both close the connection.
MAX_HEAD_BYTES = 1 << 16
MAX_BODY_BYTES = 1 << 20

#: How long a closing connection keeps reading what its client still
#: sends, so that the last reply is not destroyed by a reset.
LINGER = 1.0

#: ``respond(method, path, body)`` -> ``(status, body, content type)``.
Respond = Callable[[str, str, bytes], Awaitable[tuple[int, bytes, str]]]


def http_reply(
    code: int, body: bytes, content_type: str, close: bool = False
) -> bytes:
    """One whole HTTP/1.1 response — status line, headers and body — as
    the bytes of the single write :class:`HttpServer` sends it in.

    Sent as two writes on a Nagle socket, the body waits ~40 ms for the
    client's delayed ACK of the headers; so the sockets are also
    ``TCP_NODELAY`` (asyncio's default for TCP).
    """
    head = (
        f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n"
        f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        + ("Connection: close\r\n\r\n" if close else "\r\n")
    )
    return head.encode("latin-1") + body


class HttpServer:
    """HTTP/1.1 keep-alive on an asyncio loop: the one server of both
    HTTP surfaces, the front door (:mod:`repro.serve.app`) and
    ``repro dashboard --serve``.

    ``respond`` answers every request but ``GET /events``, the
    server-sent-events stream of ``probe`` (``data: grew`` whenever
    ``probe()`` changes; the page's inline script reloads on each ping).
    A connection's requests are read and answered in order.  The next
    request is read while one is answered, so a client that hangs up
    cancels its pending request — a half-close (``shutdown(SHUT_WR)``)
    counts as a hang-up.  A head over ``MAX_HEAD_BYTES`` is answered
    431, a body over ``MAX_BODY_BYTES`` 413, an unframeable request
    400, and the connection closes.
    """

    def __init__(
        self,
        respond: Respond,
        probe: Callable[[], Any],
        interval: float,
        max_pings: int | None = None,
    ) -> None:
        self.respond = respond
        self.probe = probe
        self.interval = interval
        self.max_pings = max_pings
        self.server: asyncio.base_events.Server | None = None
        #: One task per open connection, the one :meth:`close` cancels.
        self.connections: set[asyncio.Task] = set()

    async def start(self, host: str, port: int) -> int:
        """Listen on the running loop; returns the bound port."""
        self.server = await asyncio.start_server(
            self._serve, host, port, limit=MAX_HEAD_BYTES
        )
        return self.server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop listening and end every connection, mid-request or not."""
        await close_listener(self.server)
        for task in self.connections:
            task.cancel()
        await asyncio.gather(*self.connections, return_exceptions=True)
        await self.server.wait_closed()
        await asyncio.sleep(0)  # the aborted transports finish closing

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        talk = asyncio.get_running_loop().create_task(
            self._talk(reader, writer)
        )
        self.connections.add(talk)
        try:
            await talk
        except asyncio.CancelledError:
            if not talk.cancelled() or asyncio.current_task().cancelling():
                raise
            writer.transport.abort()  # close() ended the conversation
        finally:
            self.connections.discard(talk)

    async def _talk(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        answer = ahead = loop.create_task(_read_request(reader))
        try:
            while request := await ahead:
                method, path, body, close = request
                if method == "GET" and path == "/events":
                    await self._stream_events(writer)
                    break
                answer = loop.create_task(self.respond(method, path, body))
                ahead = loop.create_task(_read_request(reader))
                ahead.add_done_callback(functools.partial(_hung_up, answer))
                try:
                    reply = await answer
                except asyncio.CancelledError:
                    if asyncio.current_task().cancelling():
                        raise
                    break  # the client hung up: its request was dropped
                writer.write(http_reply(*reply, close=close))
                if close:
                    break
        except _BadRequest as exc:  # nothing after it can be framed
            error = json.dumps({"error": str(exc)}).encode()
            writer.write(http_reply(exc.code, error, JSON, close=True))
        finally:
            answer.cancel()
            ahead.cancel()
            await asyncio.wait((answer, ahead))  # no read left waiting
        await _linger(reader, writer)

    async def _stream_events(self, writer: asyncio.StreamWriter) -> None:
        """``GET /events``, until ``max_pings`` (tests), the client goes
        away, or the probe raises ``OSError`` (a watched file vanished).
        The probe is read before the headers go: whatever happens once
        the client sees the stream open must ping."""
        try:
            last = self.probe()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n\r\n"
            )
            pings = 0
            while not writer.is_closing() and (
                self.max_pings is None or pings < self.max_pings
            ):
                await asyncio.sleep(self.interval)
                if (now := self.probe()) != last:
                    last = now
                    writer.write(b"data: grew\n\n")
                    pings += 1
        except OSError:
            pass


def _hung_up(answer: asyncio.Task, ahead: asyncio.Task) -> None:
    """``ahead`` read the client's EOF: drop the request in ``answer``."""
    if not ahead.cancelled() and ahead.exception() is None:
        if ahead.result() is None:
            answer.cancel()


class _BadRequest(ValueError):
    """A request that cannot be framed, answered with ``code``."""

    def __init__(self, code: int, error: str) -> None:
        super().__init__(error)
        self.code = code


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, bool] | None:
    """``(method, target, body, close after the reply)``, or None once
    the client closed."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise _BadRequest(431, "request header block too large") from None
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon:
            raise _BadRequest(400, "malformed request head")
        headers[name.strip().lower()] = value.strip()
    parts = request_line.split(" ")
    length = headers.get("content-length", "0")
    if len(parts) != 3:
        raise _BadRequest(400, "malformed request line")
    if not (length.isascii() and length.isdigit()):
        raise _BadRequest(400, "Content-Length must be a number")
    if int(length) > MAX_BODY_BYTES:
        raise _BadRequest(413, "request body too large")
    try:
        body = await reader.readexactly(int(length))
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    method, target, version = parts
    close = headers.get("connection", "").lower() == "close"
    return method, target, body, close or version != "HTTP/1.1"


async def _linger(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Close so that the last reply arrives: send FIN, then read and
    drop what the client still sends (a body after its 413, a request
    after ``Connection: close``) until it closes too or ``LINGER``
    passes.  Closed with unread bytes, the socket would answer them with
    a reset that can destroy the reply in flight."""
    try:
        writer.write_eof()
        async with asyncio.timeout(LINGER):
            while await reader.read(1 << 16):
                pass
    except (OSError, TimeoutError):
        pass
    finally:
        writer.close()


class LoopServer:
    """An :class:`HttpServer` on a loop of its own, driven the way a
    ``socketserver`` server is: ``serve_forever()`` on one thread,
    ``shutdown()`` from another, then ``server_close()``."""

    def __init__(self, http: HttpServer, host: str, port: int) -> None:
        self.http = http
        self.loop = asyncio.new_event_loop()
        port = self.loop.run_until_complete(http.start(host, port))
        self.server_address = (host, port)
        self._stop = asyncio.Event()
        self._stopped = threading.Event()

    def serve_forever(self) -> None:
        try:
            self.loop.run_until_complete(self._stop.wait())
            self.loop.run_until_complete(self.http.close())
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        self.loop.call_soon_threadsafe(self._stop.set)
        self._stopped.wait()

    def server_close(self) -> None:
        if self.http.server.is_serving():  # serve_forever was interrupted
            self.loop.run_until_complete(self.http.close())
        self.loop.close()


def serve_dashboard(
    trace_path: str,
    timeline_path: str | None = None,
    host: str = "127.0.0.1",
    port: int = 8377,
    poll_interval: float = 1.0,
    max_pings: int | None = None,
) -> LoopServer:
    """Serve the dashboard over HTTP with SSE file-watch reloads.

    ``GET /`` renders the current file contents; ``GET /data.json``
    returns the payload; ``GET /events`` holds a server-sent-events
    stream that pings whenever the trace file grows (the page's inline
    script reloads on ping).  ``max_pings`` bounds the SSE loop for
    tests.  Call ``serve_forever()`` on the result (the CLI does).
    """

    def render(path: str) -> tuple[int, bytes, str]:
        if path in ("/", "/index.html"):
            page = dashboard_from_trace(trace_path, timeline_path, live=True)
            return 200, page.encode(), HTML
        from repro.obs.timeline import load_jsonl

        events = list(read_trace(trace_path))
        records = load_jsonl(timeline_path) if timeline_path else None
        data = build_dashboard_data(events, records)
        return 200, json.dumps(data, default=str).encode(), JSON

    async def respond(method: str, path: str, body: bytes):
        if method == "GET" and path in ("/", "/index.html", "/data.json"):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, render, path)
        error = json.dumps({"error": f"no such page {path!r}"}).encode()
        return 404, error, JSON

    probe = lambda: os.path.getsize(trace_path)  # noqa: E731
    http = HttpServer(respond, probe, poll_interval, max_pings)
    return LoopServer(http, host, port)
