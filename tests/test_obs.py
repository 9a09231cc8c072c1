"""Tests for the observability layer: metrics, tracing, reconciliation."""

import json

import pytest

from repro import FragmentedDatabase
from repro.cc.ops import Read, Write
from repro.errors import DesignError
from repro.net.broadcast import ReliableBroadcast
from repro.net.network import Network
from repro.net.topology import Topology
from repro.obs import (
    MetricsRegistry,
    Tracer,
    read_trace,
    summarize_trace,
    taxonomy,
)
from repro.sim.simulator import Simulator


def make_db(nodes=("A", "B", "C"), **kwargs):
    db = FragmentedDatabase(list(nodes), **kwargs)
    db.add_agent("ag", home_node=nodes[0])
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()
    return db


def bump(obj="x"):
    def body(_ctx):
        value = yield Read(obj)
        yield Write(obj, value + 1)

    return body


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        c1 = registry.counter("a")
        c1.inc()
        c1.inc(4)
        assert registry.counter("a") is c1
        assert registry.value("a") == 5

    def test_gauge_polls_at_read_time(self):
        registry = MetricsRegistry()
        box = [0]
        registry.gauge("g", lambda: box[0])
        box[0] = 7
        assert registry.value("g") == 7

    def test_histogram_summary_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] == 50.0
        assert summary["p90"] == 90.0
        assert summary["p99"] == 99.0
        assert summary["mean"] == pytest.approx(50.5)

    def test_empty_histogram_summary(self):
        summary = MetricsRegistry().histogram("h").summary()
        assert summary["count"] == 0
        assert summary["mean"] is None

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.gauge("g", lambda: 3)
        registry.observe("h", 1.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 3}
        assert snap["histograms"]["h"]["count"] == 1
        # JSON-serializable end to end.
        json.dumps(snap)

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.inc("net.sent")
        registry.inc("net.held")
        registry.inc("txn.committed")
        assert set(registry.counters_with_prefix("net.")) == {
            "net.sent",
            "net.held",
        }

    def test_unknown_value_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().value("nope")

    def test_histogram_sorted_view_cached_until_observe(self):
        hist = MetricsRegistry().histogram("h")
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist._sorted is None  # no summary asked for yet
        first = hist._ordered()
        assert first == [1.0, 2.0, 3.0]
        assert hist._ordered() is first  # cached, not re-sorted
        hist.observe(0.5)
        assert hist._sorted is None  # observe invalidates the cache
        assert hist.summary()["min"] == 0.5  # and the summary sees it

    def test_value_returns_histogram_summary(self):
        registry = MetricsRegistry()
        registry.observe("h", 2.0)
        registry.observe("h", 4.0)
        summary = registry.value("h")
        assert summary["count"] == 2
        assert summary["min"] == 2.0
        assert summary["max"] == 4.0
        assert summary == registry.histogram("h").summary()


class TestHistogramReservoir:
    """Bounded memory above RESERVOIR_SIZE; exact behaviour below it."""

    def test_exact_below_threshold(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        hist = MetricsRegistry().histogram("h")
        for value in range(RESERVOIR_SIZE):
            hist.observe(float(value))
        # Still verbatim: every sample held, percentiles exact.
        assert len(hist.values) == RESERVOIR_SIZE
        assert hist.count == RESERVOIR_SIZE
        assert hist.percentile(50) == RESERVOIR_SIZE // 2 - 1

    def test_memory_bounded_above_threshold(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        hist = MetricsRegistry().histogram("h")
        total = RESERVOIR_SIZE * 4
        for value in range(total):
            hist.observe(float(value))
        assert len(hist.values) == RESERVOIR_SIZE  # bounded
        assert hist.count == total  # true total, not the held subset

    def test_moments_exact_at_scale(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        hist = MetricsRegistry().histogram("h")
        total = RESERVOIR_SIZE * 3
        for value in range(1, total + 1):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == total
        assert summary["min"] == 1.0
        assert summary["max"] == float(total)
        assert summary["mean"] == pytest.approx((total + 1) / 2)

    def test_percentiles_representative_at_scale(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        hist = MetricsRegistry().histogram("h")
        total = RESERVOIR_SIZE * 5
        for value in range(total):
            hist.observe(float(value))
        # Uniform stream: the reservoir's p50 should sit near the true
        # median.  A generous 10% band keeps this robust to the seed.
        p50 = hist.percentile(50)
        assert abs(p50 - total / 2) < total * 0.10

    def test_reservoir_deterministic_per_name(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        def fill(name):
            hist = MetricsRegistry().histogram(name)
            for value in range(RESERVOIR_SIZE * 2):
                hist.observe(float(value))
            return list(hist.values)

        assert fill("same") == fill("same")  # seeded from the name


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        tracer.emit("x", a=1)
        assert len(tracer) == 0
        assert tracer.emitted == 0

    def test_enabled_tracer_records(self):
        tracer = Tracer(enabled=True)
        tracer.emit("x", a=1)
        (event,) = tracer.events()
        assert event.type == "x"
        assert event.fields == {"a": 1}
        assert event.time == 0.0

    def test_exclusion_filter(self):
        tracer = Tracer(enabled=True, exclude={"noise"})
        tracer.emit("noise")
        tracer.emit("signal")
        assert [e.type for e in tracer] == ["signal"]

    def test_default_exclude_suppresses_sim_fire(self):
        tracer = Tracer(enabled=True)
        tracer.emit(taxonomy.SIM_FIRE, label="x")
        assert len(tracer) == 0

    def test_ring_buffer_caps_memory(self):
        tracer = Tracer(enabled=True, ring_size=8)
        for i in range(20):
            tracer.emit("e", i=i)
        assert len(tracer) == 8
        assert tracer.emitted == 20
        assert [e.fields["i"] for e in tracer] == list(range(12, 20))

    def test_clock_stamps_events(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0], enabled=True)
        tracer.emit("a")
        now[0] = 4.5
        tracer.emit("b")
        assert [e.time for e in tracer] == [0.0, 4.5]

    def test_events_and_counts_prefix_filter(self):
        tracer = Tracer(enabled=True)
        tracer.emit("message.send")
        tracer.emit("message.send")
        tracer.emit("txn.commit")
        assert len(tracer.events("message.")) == 2
        assert tracer.counts("message.") == {"message.send": 2}
        assert tracer.counts() == {"message.send": 2, "txn.commit": 1}

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(enabled=True)
        tracer.open_jsonl(path, context={"run": "unit"})
        tracer.emit("message.send", src="A", dst="B", kind="qt")
        tracer.emit("txn.commit", txn="T1")
        tracer.close()
        records = list(read_trace(path))
        assert [r["type"] for r in records] == ["message.send", "txn.commit"]
        assert all(r["run"] == "unit" for r in records)
        summary = summarize_trace(path)
        assert summary.total == 2
        assert summary.count("message.send") == 1
        assert summary.count("txn.commit", run="unit") == 1
        assert summary.message_kinds == {"message.send:qt": 1}

    def test_jsonl_sink_stringifies_unserializable(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(enabled=True)
        tracer.open_jsonl(path)
        tracer.emit("x", obj=object())
        tracer.close()
        (record,) = read_trace(path)
        assert isinstance(record["obj"], str)

    def test_sink_flushes_periodically(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(enabled=True, flush_every=2)
        tracer.open_jsonl(path)
        tracer.emit("a")
        assert tracer._unflushed == 1
        tracer.emit("b")  # hits flush_every: sink flushed to disk
        assert tracer._unflushed == 0
        assert [r["type"] for r in read_trace(path)] == ["a", "b"]
        tracer.close()

    def test_manual_flush_drains_sink(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(enabled=True, flush_every=0)  # periodic off
        tracer.open_jsonl(path)
        for index in range(5):
            tracer.emit("e", i=index)
        assert tracer._unflushed == 5
        tracer.flush()
        assert tracer._unflushed == 0
        assert len(list(read_trace(path))) == 5
        tracer.close()


class TestBroadcastAccounting:
    def test_fan_out_exports_only_the_send_count(self):
        net = Network(Simulator(), Topology.full_mesh(["A", "B"]))
        bcast = ReliableBroadcast(net)
        for node in ("A", "B"):
            bcast.attach(node, lambda s, q, b: None)
        bcast.broadcast("A", "x")
        bcast.multicast("A", "y", targets=["B"], stream="s")
        assert net.metrics.value("bcast.sent") == 2
        snapshot = net.metrics.snapshot()
        exported = [
            name
            for section in snapshot.values()
            for name in section
            if name.startswith("bcast.")
        ]
        assert exported == ["bcast.sent"]


class TestSimulatorPending:
    def test_pending_is_maintained_not_scanned(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending == 5
        handles[0].cancel()
        assert sim.pending == 4
        sim.run(until=3.0)
        assert sim.pending == 2

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        handle.cancel()  # already fired: must be a no-op
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0


class TestSystemObservability:
    def test_snapshot_counts_transactions(self):
        db = make_db()
        for _ in range(3):
            db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        snap = db.snapshot()
        assert snap["counters"]["txn.submitted"] == 3
        assert snap["counters"]["txn.committed"] == 3
        assert snap["counters"]["qt.installed"] >= 6  # two replicas
        assert snap["histograms"]["txn.commit_latency"]["count"] == 3
        assert snap["gauges"]["net.held_now"] == 0

    def test_enable_tracing_writes_jsonl(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        db = make_db()
        db.enable_tracing(path, context={"run": "t"})
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        db.tracer.close()
        summary = summarize_trace(path)
        assert summary.count("txn.submit") == 1
        assert summary.count("txn.commit") == 1
        assert summary.count("message.send") > 0

    def test_tracer_clock_is_sim_time(self):
        db = make_db()
        db.enable_tracing()
        db.sim.schedule_at(
            7.0,
            lambda: db.submit_update("ag", bump(), writes=["x"]),
            label="late submit",
        )
        db.quiesce()
        (submit,) = db.tracer.events(taxonomy.TXN_SUBMIT)
        assert submit.time == 7.0

    def test_node_crash_recover_traced_and_counted(self):
        db = make_db()
        db.enable_tracing()
        db.fail_node("B")
        db.recover_node("B")
        db.quiesce()
        assert db.metrics.value("node.crashes") == 1
        assert db.metrics.value("node.recoveries") == 1
        assert [e.type for e in db.tracer.events("node.")] == [
            taxonomy.NODE_CRASH,
            taxonomy.NODE_RECOVER,
        ]

    def test_multi_fragment_agent_warns_not_raises(self):
        db = FragmentedDatabase(["A", "B"])
        db.add_agent("big", home_node="A")
        db.add_fragment("F1", agent="big", objects=["a"])
        db.add_fragment("F2", agent="big", objects=["b"])
        db.enable_tracing()
        mapping = db.agent_fragments
        assert mapping == {}
        assert db.metrics.value("lsg.untyped_agents") == 1
        warnings = db.tracer.events(taxonomy.WARN_MULTI_FRAGMENT_AGENT)
        assert len(warnings) == 1
        assert warnings[0].fields["agent"] == "big"
        # Deduped: a second read does not warn again.
        db.agent_fragments
        assert db.metrics.value("lsg.untyped_agents") == 1

    def test_agent_fragment_map_strict_raises(self):
        db = FragmentedDatabase(["A"])
        db.add_agent("big", home_node="A")
        db.add_fragment("F1", agent="big", objects=["a"])
        db.add_fragment("F2", agent="big", objects=["b"])
        with pytest.raises(DesignError, match="two or more fragments"):
            db.agent_fragment_map(strict=True)

    def test_single_fragment_agents_still_typed(self):
        db = make_db()
        assert db.agent_fragment_map(strict=True) == {"ag": "F"}


class TestReconciliation:
    """The trace must reconcile exactly with the network counters."""

    def run_partitioned(self):
        db = make_db()
        db.enable_tracing()
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        db.partitions.partition_now([["A"], ["B", "C"]])
        for _ in range(3):
            db.submit_update("ag", bump(), writes=["x"])
        db.run(until=db.sim.now + 10)
        return db

    def assert_reconciled(self, db):
        counts = db.tracer.counts("message.")
        assert counts.get("message.send", 0) == db.network.messages_sent
        assert (
            counts.get("message.deliver", 0) == db.network.messages_delivered
        )
        held = counts.get("message.hold", 0) - counts.get(
            "message.release", 0
        )
        assert held == db.network.held_count()
        # Registry counters agree with the plain attributes too.
        assert (
            db.metrics.value("net.messages_sent") == db.network.messages_sent
        )
        assert (
            db.metrics.value("net.messages_delivered")
            == db.network.messages_delivered
        )
        assert db.metrics.value("net.held_now") == db.network.held_count()

    def test_mid_partition_reconciles(self):
        db = self.run_partitioned()
        assert db.network.held_count() > 0  # partition actually held some
        self.assert_reconciled(db)

    def test_post_heal_reconciles(self):
        db = self.run_partitioned()
        db.partitions.heal_now()
        db.quiesce()
        self.assert_reconciled(db)
        assert db.network.held_count() == 0
        assert db.mutual_consistency().consistent

    def test_crash_recovery_run_reconciles(self):
        db = make_db()
        db.enable_tracing()
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        db.fail_node("C")
        db.submit_update("ag", bump(), writes=["x"])
        db.run(until=db.sim.now + 5)
        self.assert_reconciled(db)
        db.recover_node("C")
        db.quiesce()
        self.assert_reconciled(db)


class TestTraceGolden:
    """Exact event tally of the deterministic Section 2 banking run."""

    def test_banking_scenario_event_counts(self, tmp_path):
        from repro.workloads import BankingWorkload

        path = str(tmp_path / "golden.jsonl")
        db = FragmentedDatabase(["A", "B"])
        db.enable_tracing(path, context={"run": "golden"})
        bank = BankingWorkload(
            db,
            accounts={"00001": 300.0},
            central_node="A",
            owners={"00001": [("alice", "A"), ("bob", "B")]},
            view_mode="balance",
        )
        db.finalize()
        db.partitions.partition_now([["A"], ["B"]])
        bank.withdraw("00001", 200.0, owner=0)
        bank.withdraw("00001", 200.0, owner=1)
        db.run(until=20)
        db.partitions.heal_now()
        db.quiesce()
        db.tracer.close()

        summary = summarize_trace(path)
        assert summary.by_type == {
            "lineage.commit": 6,
            "lineage.deliver": 12,
            "lineage.enqueue": 6,
            "lineage.send": 6,
            "message.deliver": 6,
            "message.hold": 4,
            "message.release": 4,
            "message.send": 6,
            "partition.cut": 1,
            "partition.heal": 1,
            "qt.install": 6,
            "span.begin": 6,
            "span.end": 6,
            "system.catalog": 1,
            "txn.commit": 6,
            "txn.submit": 6,
        }
        assert summary.message_kinds == {
            "message.deliver:qt": 6,
            "message.hold:qt": 4,
            "message.release:qt": 4,
            "message.send:qt": 6,
        }
        # The ring buffer saw the identical stream.
        assert db.tracer.counts() == summary.by_type


class TestHistogramPercentileEdges:
    """percentile() on the boundary inputs the sampler leans on."""

    def test_empty_histogram_is_none(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.percentile(50) is None
        assert hist.percentile(0) is None
        assert hist.percentile(100) is None

    def test_single_sample_answers_every_percentile(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(7.0)
        assert hist.percentile(0) == 7.0
        assert hist.percentile(50) == 7.0
        assert hist.percentile(100) == 7.0

    def test_p0_and_p100_clamp_to_min_and_max(self):
        hist = MetricsRegistry().histogram("h")
        for value in (3.0, 1.0, 2.0, 4.0):
            hist.observe(value)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 4.0

    def test_nearest_rank_on_small_sets(self):
        hist = MetricsRegistry().histogram("h")
        for value in (10.0, 20.0, 30.0, 40.0):
            hist.observe(value)
        assert hist.percentile(50) == 20.0  # nearest-rank, not midpoint
        assert hist.percentile(75) == 30.0

    def test_reservoir_truncated_percentiles_stay_in_range(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        hist = MetricsRegistry().histogram("h")
        total = RESERVOIR_SIZE + 500
        for value in range(total):
            hist.observe(float(value))
        # Past the reservoir the answer is an estimate, but it must be
        # a genuinely observed value inside the stream's range.
        for p in (0, 50, 100):
            estimate = hist.percentile(p)
            assert 0.0 <= estimate <= float(total - 1)
        assert hist.percentile(100) <= hist.summary()["max"]


class TestTraceSummaryEdges:
    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"type": "a", "t": 1.0}\n\n   \n{"type": "b", "t": 2.0}\n',
            encoding="utf-8",
        )
        assert [r["type"] for r in read_trace(str(path))] == ["a", "b"]

    def test_empty_file_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("", encoding="utf-8")
        summary = summarize_trace(str(path))
        assert summary.total == 0
        assert summary.by_type == {}
        assert summary.time_span is None

    def test_by_run_and_time_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [
            {"type": "txn.commit", "t": 5.0, "run": "r1"},
            {"type": "txn.commit", "t": 9.0, "run": "r2"},
            {"type": "txn.abort", "t": 1.5},  # no run context
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        summary = summarize_trace(str(path))
        assert summary.time_span == (1.5, 9.0)
        assert summary.count("txn.commit") == 2
        assert summary.count("txn.commit", run="r1") == 1
        assert summary.count("txn.commit", run="missing") == 0
        assert summary.by_run == {
            "r1": {"txn.commit": 1},
            "r2": {"txn.commit": 1},
        }


class TestTracerAtexitFlush:
    """The trace tail survives a run that never reaches close()."""

    def test_flush_open_sinks_flushes_unflushed_tail(self, tmp_path):
        from repro.obs.trace import _flush_open_sinks

        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(enabled=True, flush_every=1000)
        tracer.open_jsonl(path)
        tracer.emit("txn.commit", txn="T1")
        assert list(read_trace(path)) == []  # buffered, not yet on disk
        _flush_open_sinks()
        assert [r["type"] for r in read_trace(path)] == ["txn.commit"]
        tracer.close()

    def test_closed_sink_is_deregistered(self, tmp_path):
        from repro.obs import trace as trace_module

        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(enabled=True)
        tracer.open_jsonl(path)
        assert tracer in trace_module._OPEN_SINKS
        tracer.close()
        assert tracer not in trace_module._OPEN_SINKS

    def test_killed_run_keeps_the_tail(self, tmp_path):
        """Regression: a script that exits without close() used to lose
        up to flush_every - 1 records; the atexit hook flushes them."""
        import subprocess
        import sys

        path = str(tmp_path / "trace.jsonl")
        script = (
            "import sys\n"
            "from repro.obs.trace import Tracer\n"
            "tracer = Tracer(enabled=True, flush_every=1000)\n"
            f"tracer.open_jsonl({path!r})\n"
            "tracer.emit('txn.commit', txn='T1')\n"
            "tracer.emit('txn.abort', txn='T2')\n"
            "sys.exit(3)  # abnormal exit, close() never called\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert [r["type"] for r in read_trace(path)] == [
            "txn.commit",
            "txn.abort",
        ]
