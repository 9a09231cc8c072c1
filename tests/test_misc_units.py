"""Unit tests closing smaller coverage gaps across the library."""

import pytest

from repro import (
    FragmentedDatabase,
    RequestStatus,
    TransactionSpec,
    scripted_body,
)
from repro.cc.history import (
    CommittedTxn,
    HistoryRecorder,
    InstallRecord,
    ReadObservation,
    WriteRecord,
)
from repro.core.transaction import RequestTracker
from repro.errors import DesignError
from repro.cc.ops import Write


class TestHistoryRecorder:
    def make_recorder(self):
        recorder = HistoryRecorder()
        for i, (frag, seq) in enumerate([("F1", 0), ("F1", 1), ("F2", 0)]):
            recorder.record_commit(
                CommittedTxn(
                    txn_id=f"T{i}",
                    agent="ag",
                    fragment=frag,
                    node="A",
                    commit_time=float(i),
                    stream_seq=seq,
                    kind="update",
                    writes=[WriteRecord(f"o{frag}", seq + 1, i)],
                )
            )
        recorder.record_commit(
            CommittedTxn(
                txn_id="R0",
                agent="reader",
                fragment=None,
                node="B",
                commit_time=5.0,
                stream_seq=None,
                kind="readonly",
                reads=[ReadObservation("oF1", "T0", 1)],
            )
        )
        return recorder

    def test_updates_of_fragment_ordered(self):
        recorder = self.make_recorder()
        updates = recorder.updates_of_fragment("F1")
        assert [t.txn_id for t in updates] == ["T0", "T1"]

    def test_readonly_excluded_from_updates(self):
        recorder = self.make_recorder()
        assert recorder.updates_of_fragment("F2")[0].txn_id == "T2"
        assert all(
            t.kind == "update" for t in recorder.updates_of_fragment("F1")
        )

    def test_version_order(self):
        recorder = self.make_recorder()
        order = recorder.version_order()
        assert order["oF1"] == [(1, "T0"), (2, "T1")]

    def test_lookup_and_counters(self):
        recorder = self.make_recorder()
        assert recorder.transaction("T1").stream_seq == 1
        with pytest.raises(KeyError):
            recorder.transaction("ghost")
        assert recorder.commit_count == 4
        assert recorder.update_count == 3

    def test_installs_at(self):
        recorder = self.make_recorder()
        recorder.record_install(InstallRecord("B", "T0", "F1", 0, 1.0))
        recorder.record_install(InstallRecord("C", "T0", "F1", 0, 1.0))
        assert len(recorder.installs_at("B")) == 1

    def test_abort_and_rejection_logs(self):
        recorder = self.make_recorder()
        recorder.record_abort("T9", "deadlock")
        recorder.record_rejection("T10", "partitioned")
        assert recorder.aborted == [("T9", "deadlock")]
        assert recorder.rejected == [("T10", "partitioned")]

    def test_window_drops_the_settled_and_keeps_the_orphanable(self):
        recorder = HistoryRecorder()
        # F1 is settled below slot (epoch 0, seq 6); F2 not at all.
        recorder.keep_window(4, {"F1": (0, 6), "F2": (0, 0)}.__getitem__)
        for i in range(8):
            frag = "F1" if i % 2 == 0 else "F2"
            recorder.record_commit(
                CommittedTxn(
                    f"T{i}", "ag", frag, "A", float(i), stream_seq=i,
                    kind="update", writes=[WriteRecord("o", i, i)],
                )
            )
            recorder.record_abort(f"A{i}", "deadlock")
        # Trimmed at two windows: of the four oldest, F1's T0 and T2
        # went, F2's T1 and T3 stay — a cut could still reach them.
        assert [t.txn_id for t in recorder.committed] == [
            "T1", "T3", "T4", "T5", "T6", "T7",
        ]
        with pytest.raises(KeyError):
            recorder.transaction("T0")
        assert recorder.transaction("T1").stream_seq == 1
        assert [a for a, _ in recorder.aborted] == ["A4", "A5", "A6", "A7"]
        # Once the cut has judged them, they go with the next trim.
        recorder.record_orphan("T1", "cut")
        recorder.record_orphan("T3", "cut")
        for i in range(8, 12):
            recorder.record_commit(
                CommittedTxn(f"R{i}", "ag", None, "A", float(i), None, "readonly")
            )
        assert [t.txn_id for t in recorder.committed][:2] == ["T5", "T6"]
        assert set(recorder.orphaned) == {"T1", "T3"}
        assert recorder.retained == len(recorder.committed) + 4


class TestRequestTracker:
    def make_tracker(self):
        spec = TransactionSpec("T1", "ag", scripted_body([]))
        return RequestTracker(spec, submit_time=10.0, node="A")

    def test_finish_is_idempotent(self):
        tracker = self.make_tracker()
        tracker.finish(RequestStatus.COMMITTED, 15.0, result="first")
        tracker.finish(RequestStatus.ABORTED, 20.0, reason="too late")
        assert tracker.status is RequestStatus.COMMITTED
        assert tracker.result == "first"
        assert tracker.latency == 5.0

    def test_on_done_fires_on_finish(self):
        tracker = self.make_tracker()
        seen = []
        tracker.on_done = seen.append
        tracker.finish(RequestStatus.REJECTED, 11.0, reason="no")
        assert seen == [tracker]
        assert not tracker.succeeded
        assert tracker.on_done is None  # fired once, then released

    def test_latency_none_while_pending(self):
        tracker = self.make_tracker()
        assert tracker.latency is None


class TestScriptedBody:
    def test_unknown_action_rejected(self):
        body = scripted_body([("x", "obj")])
        gen = body(None)
        with pytest.raises(ValueError):
            next(gen)

    def test_collect_captures_reads(self):
        db = FragmentedDatabase(["A"])
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.load({"x": 42})
        collected = []
        db.submit_readonly(
            "ag", scripted_body([("r", "x")], collect=collected), reads=["x"]
        )
        db.quiesce()
        assert collected == [("x", 42)]


class TestReplicationMoveGuard:
    def test_move_to_non_replicating_node_rejected(self):
        from repro.core.movement import MoveWithDataProtocol

        db = FragmentedDatabase(
            ["A", "B", "C"], movement=MoveWithDataProtocol()
        )
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.set_replication("F", ["A", "B"])
        db.load({"x": 0})
        db.finalize()
        with pytest.raises(DesignError):
            db.move_agent("ag", "C")
        db.move_agent("ag", "B", transport_delay=1.0)  # allowed
        db.quiesce()


class TestAvailabilityStats:
    def test_mean_latency_and_counts(self):
        db = FragmentedDatabase(["A", "B"])
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.load({"x": 0})
        db.finalize()

        def setx(_ctx):
            yield Write("x", 1)

        db.submit_update("ag", setx, writes=["x"])
        db.quiesce()
        stats = db.availability_stats()
        assert stats.submitted == 1
        assert stats.mean_latency == 0.0
        assert stats.availability == 1.0

    def test_empty_system_fully_available(self):
        db = FragmentedDatabase(["A"])
        assert db.availability_stats().availability == 1.0
