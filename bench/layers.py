"""Per-layer metrics, named ``<module>.<metric>``.

*Counts* are deltas, over the timed window, of counters the program
already exports (``db.metrics``, the WAL, the tracer).  *Self times*
come from the spans of ``bench.probes``: the self time of the probes a
metric lists, per front-door request (live) or per committed update
(simulator).  ``*.micro.*`` are the isolated loops of ``bench.micro``.

A metric whose probes are all gone reads ``None`` (the probe names are
in the run's ``missing_layers``); a metric that does not apply to a
workload — ``serve.*`` on the simulator — reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable

from bench import micro
from bench.cluster import TICK
from bench.stats import percentile

#: metric -> (probes whose self time it sums, scale from seconds).
SELF_TIMES: dict[str, tuple[tuple[str, ...], float]] = {
    "serve.frontdoor_self_ms": (
        ("serve.submit_write", "serve.submit_read"), 1e3),
    "serve.handoff_wait_ms": (("serve.handoff",), 1e3),
    "core.submit_self_us": (
        ("core.submit_update", "core.submit_readonly"), 1e6),
    "cc.scheduler_self_us": (
        ("cc.scheduler.submit", "cc.scheduler.submit_quasi"), 1e6),
    "cc.locks_us": (("cc.locks.acquire", "cc.locks.release_all"), 1e6),
    "storage.wal_append_us": (("storage.wal.append_install",), 1e6),
    "storage.store_install_us": (("storage.store.install",), 1e6),
    "replication.pipeline_self_us": (
        ("replication.pipeline.submit", "replication.pipeline.deliver",
         "replication.batcher.submit", "replication.batcher.flush"), 1e6),
    "replication.apply_self_us": (("replication.apply.enqueue",), 1e6),
    "replication.quorum_self_us": (
        ("replication.quorum.begin_read", "replication.quorum.on_request",
         "replication.quorum.on_reply"), 1e6),
    "net.broadcast_self_us": (
        ("net.broadcast.multicast", "net.broadcast.handle_message"), 1e6),
    "net.reliable_self_us": (
        ("net.reliable.on_send", "net.reliable.intercept"), 1e6),
    "runtime.codec_encode_us": (("runtime.codec.encode_frame",), 1e6),
    "runtime.codec_decode_us": (("runtime.codec.decode_frame",), 1e6),
}

#: Histograms (in ticks) reported as windowed means in milliseconds.
STAGE_WAITS = {
    "replication.batch_wait_ms": "pipeline.batch_wait",
    "replication.transport_wait_ms": "pipeline.transport_wait",
    "replication.admission_wait_ms": "pipeline.admission_wait",
    "replication.apply_wait_ms": "pipeline.apply_wait",
    "availability.mttr_ms": "avail.mttr",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _self_times(spans: dict[str, Any], per: float) -> dict[str, float | None]:
    totals, missing = spans["totals"], set(spans["missing"])
    out: dict[str, float | None] = {}
    for metric, (probes, scale) in SELF_TIMES.items():
        if all(p in missing for p in probes):
            out[metric] = None
            continue
        self_s = sum(totals[p]["self_s"] for p in probes if p in totals)
        out[metric] = _ratio(self_s, per) * scale
    return out


def _windowed_mean(before: dict, after: dict, name: str) -> float:
    """Mean of the samples a histogram took between two snapshots."""
    b = before.get(name) or {"count": 0, "mean": None}
    a = after.get(name) or {"count": 0, "mean": None}
    count = a["count"] - b["count"]
    if count <= 0:
        return 0.0
    total = a["count"] * a["mean"] - b["count"] * (b["mean"] or 0.0)
    return total / count


def _propagation(histograms: dict[str, dict], key: str) -> float:
    """Count-weighted mean over the per-fragment propagation histograms."""
    rows = [
        h for name, h in histograms.items()
        if name.startswith("pipeline.propagation.") and h["count"]
    ]
    weight = sum(h["count"] for h in rows)
    return _ratio(sum(h[key] * h["count"] for h in rows), weight)


def _counts(
    d: Callable[[str], float],
    before_h: dict,
    after_h: dict,
    ops: int,
    window: float,
) -> dict[str, float | None]:
    """The count metrics every workload shares."""
    packets = d("retrans.packets")
    out: dict[str, float | None] = {
        "serve.retries_per_op": _ratio(d("http.updates_retried"), ops),
        "serve.overload_503": d("http.updates_overload"),
        "core.gate_rejects": d("txn.rejected"),
        "cc.lock_waits": max(0.0, d("lock_waits")),
        "storage.wal_records_per_op": _ratio(d("wal_appends"), ops),
        "replication.qts_per_batch": _ratio(
            d("replication.qt_submitted"), d("replication.batches_sent")),
        "replication.propagation_p50_ms": (
            _propagation(after_h, "p50") * TICK * 1e3),
        "replication.propagation_p90_ms": (
            _propagation(after_h, "p90") * TICK * 1e3),
        "replication.quorum_msgs_per_read": _ratio(
            d("quorum.requests_sent") + d("quorum.replies"),
            d("quorum.reads")),
        "replication.quorum_late_replies": d("quorum.late_replies"),
        "net.msgs_per_op": _ratio(d("net.messages_sent"), ops),
        "net.acks_per_msg": _ratio(d("retrans.acks_sent"), packets),
        "net.retransmits_per_msg": _ratio(d("retrans.resent"), packets),
        "net.dups_dropped": (
            d("retrans.duplicates_dropped") + d("bcast.duplicates_dropped")),
        "net.retrans_paused": d("retrans.paused"),
        "runtime.frames_per_op": _ratio(d("tcp.frames_sent"), ops),
        "runtime.bytes_per_op": _ratio(d("tcp.bytes_sent"), ops),
        "runtime.pickle_fallbacks": d("pickle_fallbacks"),
        "runtime.frames_lost": d("tcp.frames_lost"),
        "availability.aborted_failovers": d("avail.failovers_aborted"),
        "availability.heartbeat_msgs_per_s": _ratio(
            d("avail.heartbeats"), window),
        "recovery.catchups": d("recovery.catchup_requests"),
        "recovery.records_shipped": d("recovery.delta_qts_shipped"),
        "recovery.checkpoints": d("recovery.checkpoints"),
        "obs.trace_events_per_op": _ratio(d("trace_events"), ops),
        "sim.events_per_update": _ratio(d("sim.events_fired"), ops),
        "sim.events_per_s": _ratio(d("sim.events_fired"), window),
    }
    for metric, histogram in STAGE_WAITS.items():
        out[metric] = _windowed_mean(before_h, after_h, histogram) * TICK * 1e3
    return out


def _micro(out: dict[str, float | None], missing: list[str]) -> None:
    results, gone = micro.run_all()
    out.update(results)
    missing.extend(gone)


def _requests_seen(spans: dict[str, Any], fallback: int) -> int:
    """Front-door requests the probes saw (they also see the warm-up)."""
    totals = spans["totals"]
    calls = sum(
        totals[p]["calls"]
        for p in ("serve.submit_write", "serve.submit_read") if p in totals
    )
    return calls or fallback


def _http_self_ms(ok: list, spans: dict[str, Any], requests: int) -> float:
    """Client latency beyond the front door's own span: the socket, HTTP
    parsing and reply framing on both sides."""
    totals = spans["totals"]
    door_s = sum(
        totals[p]["total_s"]
        for p in ("serve.submit_write", "serve.submit_read") if p in totals
    )
    client_ms = statistics.fmean((s.done - s.sent) * 1e3 for s in ok)
    return client_ms - _ratio(door_s, requests) * 1e3


def live_metrics(
    raw: dict[str, Any],
    spans: dict[str, Any],
    audit: dict[str, Any],
    teardown: dict[str, Any],
    *,
    info: dict[str, float],
    max_late_ms: float,
    gen_fraction: float,
    untraced_cpu_ms: float,
    read_kind: Callable[[Any], str],
) -> dict[str, float | None]:
    before, after = raw["before"], raw["after"]
    samples = raw["samples"]
    ok = [s for s in samples if s.ok]
    ops = len(ok)

    def d(name: str) -> float:
        for section in ("counters", "gauges"):
            if name in after[section]:
                return after[section][name] - before[section].get(name, 0)
        return (after.get(name) or 0) - (before.get(name) or 0)

    out = _counts(d, before["histograms"], after["histograms"], ops,
                  raw["window"])
    requests = _requests_seen(spans, ops)
    out.update(_self_times(spans, requests))

    out["serve.http_self_ms"] = _http_self_ms(ok, spans, requests)
    latencies = [(s.done - s.due) * 1e3 for s in ok]
    out["serve.client_p50_ms"] = info["p50_ms"]
    out["serve.client_p99_ms"] = percentile(latencies, 99)
    out["serve.client_samples"] = float(len(latencies))
    for kind in ("local", "quorum"):
        reads = [
            (s.done - s.sent) * 1e3 for s in ok
            if s.path == "/reads" and read_kind(s) == kind
        ]
        out[f"serve.read_{kind}_p50_ms"] = (
            percentile(reads, 50) if reads else 0.0)

    kills = len(raw["kills"])
    out["availability.failover_gap_ms"] = info["failover_gap_ms"]
    out["availability.slo_miss_fraction"] = info["slo_miss_fraction"]
    out["availability.failovers_per_kill"] = _ratio(d("avail.failovers"), kills)
    out["availability.mttd_ms"] = (audit.get("mttd_ticks") or 0.0) * TICK * 1e3
    out["availability.orphans"] = float(len(raw["final"]["orphaned"]))
    out["runtime.teardown_warnings"] = float(teardown["teardown_warnings"])
    out["process.cpu_ms_per_op"] = untraced_cpu_ms
    out["obs.bench_trace_overhead"] = _ratio(
        info["cpu_ms_per_op"], untraced_cpu_ms)
    out["loadgen.max_late_ms"] = max_late_ms
    out["loadgen.cpu_fraction"] = gen_fraction
    _micro(out, spans["missing"])
    return out


def sim_metrics(
    untraced: dict[str, Any], traced: dict[str, Any], spans: dict[str, Any]
) -> dict[str, float | None]:
    """Counts from the untraced repeat (exact), self times from the traced."""
    ops = untraced["committed"]
    counters = dict(untraced["counters"])
    counters.update(
        wal_appends=untraced["wal_appends"],
        trace_events=untraced["trace_events"],
    )
    counters["sim.events_fired"] = untraced["events_fired"]
    out = _counts(
        lambda name: counters.get(name, 0), {}, untraced["histograms"],
        ops, untraced["elapsed_s"],
    )
    out.update(_self_times(spans, traced["committed"]))
    for name in (
        "serve.http_self_ms", "serve.client_p50_ms", "serve.client_p99_ms",
        "serve.client_samples",
        "serve.read_local_p50_ms", "serve.read_quorum_p50_ms",
        "availability.failover_gap_ms", "availability.slo_miss_fraction",
        "availability.failovers_per_kill", "availability.mttd_ms",
        "availability.orphans", "runtime.teardown_warnings",
        "loadgen.max_late_ms", "loadgen.cpu_fraction",
    ):
        out[name] = 0.0
    out["process.cpu_ms_per_op"] = untraced["cpu_s"] * 1e3 / ops
    out["obs.bench_trace_overhead"] = _ratio(
        traced["cpu_s"] / traced["committed"], untraced["cpu_s"] / ops
    )
    _micro(out, spans["missing"])
    return out


def blocking_path(raw: dict[str, Any], spans: dict[str, Any]) -> dict[str, Any]:
    """Per-request self time on the path a reply waits for, by probe.

    Only spans rooted at a front-door request count; replication work
    that runs after the acknowledgement does not.  ``serve.http`` is
    client latency minus the front door's span, measured on its own, so
    the sum matches the client's mean only if the self times really
    partition each request's root span.
    """
    ok = [s for s in raw["samples"] if s.ok]
    client_ms = statistics.fmean((s.done - s.sent) * 1e3 for s in ok)
    requests = _requests_seen(spans, len(ok))
    parts = {
        name: total["request_self_s"] / requests * 1e3
        for name, total in spans["totals"].items()
        if total["request_self_s"] > 0
    }
    parts["serve.http"] = _http_self_ms(ok, spans, requests)
    largest = max(parts, key=parts.get)
    return {
        "client_mean_ms": client_ms,
        "sum_ms": sum(parts.values()),
        "parts_ms": dict(sorted(parts.items(), key=lambda kv: -kv[1])),
        "largest": largest,
        "largest_share": _ratio(parts[largest], client_ms),
    }
