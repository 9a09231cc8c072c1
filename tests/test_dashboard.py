"""Tests for the stdlib dashboard: payload assembly, HTML, live server."""

import json
import threading
import urllib.error
import urllib.request

from repro.obs import taxonomy
from repro.obs.dashboard import (
    HEATMAP_BUCKETS,
    build_dashboard_data,
    dashboard_from_trace,
    render_html,
    serve_dashboard,
)


def chaos_events(run="r1"):
    """A small trace with a catalog, a crash window, and one txn span."""
    return [
        {
            "type": taxonomy.SYSTEM_CATALOG,
            "t": 0.0,
            "run": run,
            "fragments": {"F": {"agent": "ag", "replicas": ["A", "B", "C"]}},
            "agents": {"ag": "A"},
            "nodes": ["A", "B", "C"],
        },
        {"type": taxonomy.SPAN_BEGIN, "t": 1.0, "run": run, "txn": "T1",
         "agent": "ag"},
        {"type": taxonomy.SPAN_END, "t": 4.0, "run": run, "txn": "T1",
         "status": "COMMITTED"},
        {"type": taxonomy.NODE_CRASH, "t": 50.0, "run": run, "node": "A"},
        {"type": taxonomy.NODE_RECOVER, "t": 75.0, "run": run, "node": "A"},
        {"type": taxonomy.TXN_COMMIT, "t": 80.0, "run": run, "txn": "T2"},
        {"type": taxonomy.TXN_COMMIT, "t": 100.0, "run": run, "txn": "T3"},
    ]


class TestBuildDashboardData:
    def test_payload_shape(self):
        data = build_dashboard_data(chaos_events())
        assert data["meta"]["events"] == 7
        assert data["meta"]["runs"] == ["r1"]
        assert data["meta"]["t_min"] == 0.0
        assert data["meta"]["t_max"] == 100.0
        assert "r1" in data["availability"]

    def test_spans_paired_from_begin_end(self):
        data = build_dashboard_data(chaos_events())
        assert data["spans"] == [
            {"txn": "T1", "agent": "ag", "start": 1.0, "end": 4.0,
             "status": "committed"}
        ]

    def test_heatmap_marks_the_crash_window(self):
        data = build_dashboard_data(chaos_events())
        rows = data["heatmap"]["rows"]
        assert [row["label"] for row in rows] == ["F"]
        cells = rows[0]["cells"]
        assert len(cells) == HEATMAP_BUCKETS
        # Window 50..75 over a 0..100 span: buckets in the middle are
        # fully unavailable, edges are clean.
        width = 100.0 / HEATMAP_BUCKETS
        mid = int(60.0 / width)
        assert cells[mid] == 1.0
        assert cells[0] == 0.0
        assert cells[-1] == 0.0
        assert "crash" in rows[0]["causes"][mid]

    def test_heatmap_labels_carry_run_when_multi_run(self):
        events = chaos_events("r1") + chaos_events("r2")
        data = build_dashboard_data(events)
        labels = sorted(r["label"] for r in data["heatmap"]["rows"])
        assert labels == ["F (r1)", "F (r2)"]

    def test_series_fall_back_to_event_rates(self):
        data = build_dashboard_data(chaos_events())
        names = [s["name"] for s in data["series"]]
        assert any(name.startswith("events: txn.") for name in names)
        for series in data["series"]:
            assert series["kind"] == "event-rate"
            assert len(series["points"]) == HEATMAP_BUCKETS

    def test_series_prefer_timeline_counters(self):
        timeline = {
            "counter": {
                "txn.committed": [
                    {"t": 10.0, "value": 3, "delta": 3},
                    {"t": 20.0, "value": 5, "delta": 2},
                ]
            },
            "gauge": {
                "sim.queue": [{"t": 10.0, "value": 7.0}],
            },
        }
        data = build_dashboard_data(chaos_events(), timeline)
        by_name = {s["name"]: s for s in data["series"]}
        assert by_name["txn.committed"]["kind"] == "counter-rate"
        assert by_name["txn.committed"]["points"] == [[10.0, 3], [20.0, 2]]
        assert by_name["sim.queue"]["kind"] == "gauge"

    def test_empty_trace_renders_without_error(self):
        data = build_dashboard_data([])
        html = render_html(data, title="empty")
        assert "<svg" not in html or html  # no crash is the contract
        assert "empty" in html


class TestRenderHtml:
    def test_contains_the_dashboard_sections(self):
        data = build_dashboard_data(chaos_events())
        html = render_html(data, title="t")
        assert "<svg" in html
        assert "viz-root" in html
        assert "availability" in html.lower()
        # Dark mode is selected, not flipped: both scopes present.
        assert 'prefers-color-scheme: dark' in html
        assert ':root[data-theme="dark"]' in html

    def test_static_page_carries_no_sse_script(self):
        data = build_dashboard_data(chaos_events())
        static = render_html(data, title="t", live=False)
        live = render_html(data, title="t", live=True)
        assert "EventSource" not in static
        assert "EventSource" in live

    def test_dashboard_from_trace_files(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            "".join(json.dumps(e) + "\n" for e in chaos_events()),
            encoding="utf-8",
        )
        timeline = tmp_path / "tl.jsonl"
        timeline.write_text(
            json.dumps(
                {"kind": "counter", "name": "txn.committed", "t": 10.0,
                 "value": 2, "delta": 2}
            )
            + "\n",
            encoding="utf-8",
        )
        html = dashboard_from_trace(str(trace), str(timeline))
        assert "txn.committed" in html
        assert "<svg" in html


class TestServeDashboard:
    def test_routes_and_sse(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            "".join(json.dumps(e) + "\n" for e in chaos_events()),
            encoding="utf-8",
        )
        server = serve_dashboard(
            str(trace), host="127.0.0.1", port=0,
            poll_interval=0.05, max_pings=1,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            with urllib.request.urlopen(f"{base}/", timeout=5) as response:
                page = response.read().decode("utf-8")
            assert "<svg" in page
            assert "EventSource" in page  # served pages are live
            with urllib.request.urlopen(
                f"{base}/data.json", timeout=5
            ) as response:
                payload = json.loads(response.read())
            assert payload["meta"]["events"] == 7

            # Grow the trace; the SSE stream must ping.
            def grow():
                with open(trace, "a", encoding="utf-8") as fh:
                    fh.write(
                        json.dumps(
                            {"type": taxonomy.TXN_COMMIT, "t": 110.0,
                             "run": "r1", "txn": "T4"}
                        )
                        + "\n"
                    )

            timer = threading.Timer(0.1, grow)
            timer.start()
            with urllib.request.urlopen(
                f"{base}/events", timeout=5
            ) as response:
                line = response.readline().decode("utf-8")
            timer.cancel()
            assert line.startswith("data: grew")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_sse_headers_arrive_before_the_first_ping(self, tmp_path):
        """An EventSource blocks until the status line arrives, so the
        stream's headers must leave at once — not with the first ping."""
        trace = tmp_path / "trace.jsonl"
        trace.write_text("", encoding="utf-8")
        server = serve_dashboard(
            str(trace), host="127.0.0.1", port=0,
            poll_interval=0.05, max_pings=1,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            # urlopen returns once the headers are in; the file has not
            # grown yet, so no ping can have carried them.
            with urllib.request.urlopen(
                f"{base}/events", timeout=5
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == "text/event-stream"
                with open(trace, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"type": "x", "t": 1.0}) + "\n")
                assert response.readline().startswith(b"data: grew")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_unknown_path_is_404(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("", encoding="utf-8")
        server = serve_dashboard(str(trace), host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            try:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
                raised = False
            except urllib.error.HTTPError as err:
                raised = err.code == 404
            assert raised
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
