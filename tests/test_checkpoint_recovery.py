"""Tests for the checkpoint & anti-entropy catch-up subsystem.

Covers the four legs of the recovery design: durable per-fragment
checkpoints (restore = checkpoint + WAL suffix), cluster low-watermark
compaction (bounded archives/WALs, partition-aware grace), cursor-based
single-donor catch-up (delta rejoin), and checkpoint shipping for a
rejoiner that fell below the compaction horizon.
"""

from repro import (
    FragmentedDatabase,
    MoveWithDataProtocol,
    RecoveryConfig,
)
from repro.cc.ops import Read, Write
from repro.cli import main as cli_main
from repro.recovery import (
    CheckpointStore,
    FragmentCheckpoint,
    WatermarkTracker,
    build_checkpoint,
)
from repro.storage.values import Version


def make_db(nodes=("A", "B", "C"), recovery=None, **kwargs):
    db = FragmentedDatabase(list(nodes), recovery=recovery, **kwargs)
    db.add_agent("ag", home_node=nodes[0])
    db.add_fragment("F", agent="ag", objects=["x", "y"])
    db.load({"x": 0, "y": 0})
    db.finalize()
    return db


def bump(obj):
    def body(_ctx):
        value = yield Read(obj)
        yield Write(obj, value + 1)

    return body


def _ckpt(fragment="F", upto=3, epoch=0, **objects):
    snapshot = {
        name: Version(value, f"T{name}", 1, 1.0)
        for name, value in (objects or {"x": 1}).items()
    }
    return FragmentCheckpoint(
        fragment=fragment, upto=upto, epoch=epoch,
        snapshot=snapshot, origin="A", taken_at=0.0,
    )


class TestCheckpointStore:
    def test_keeps_only_newest_per_fragment(self):
        shelf = CheckpointStore("A")
        assert shelf.put(_ckpt(upto=3))
        assert not shelf.put(_ckpt(upto=2))  # older cursor: refused
        assert shelf.put(_ckpt(upto=5, x=9))
        assert shelf.get("F").upto == 5
        assert len(shelf) == 1
        assert shelf.puts == 2

    def test_epoch_dominates_cursor_comparison(self):
        shelf = CheckpointStore("A")
        shelf.put(_ckpt(upto=9, epoch=0))
        assert shelf.put(_ckpt(upto=2, epoch=1))  # newer epoch wins
        assert shelf.get("F").cursor == (1, 2)

    def test_object_count_sums_fragments(self):
        shelf = CheckpointStore("A")
        shelf.put(_ckpt(x=1, y=2))
        shelf.put(_ckpt(fragment="G", upto=1, x=3))
        assert shelf.object_count() == 3
        assert [c.fragment for c in shelf.all()] == ["F", "G"]


class TestWatermarkTracker:
    def test_minimum_over_replicas_with_unheard_default(self):
        tracker = WatermarkTracker()
        tracker.note("F", "A", 5)
        tracker.note("F", "B", 7)
        # C never checkpointed: it holds the watermark at zero.
        assert tracker.watermark("F", ["A", "B", "C"], set()) == 0
        assert tracker.watermark("F", ["A", "B", "C"], {"C"}) == 5

    def test_marks_only_move_forward(self):
        tracker = WatermarkTracker()
        tracker.note("F", "A", 5)
        tracker.note("F", "A", 3)  # stale gossip must not rewind
        assert tracker.cursor("F", "A") == 5


class TestCheckpointRestore:
    def test_restore_is_checkpoint_plus_wal_suffix(self):
        db = make_db(recovery=RecoveryConfig(checkpoint_every=2))
        for _ in range(5):
            db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        replica = db.nodes["B"]
        ckpt = replica.checkpoints.get("F")
        assert ckpt is not None and ckpt.upto >= 4
        # The WAL was truncated behind the checkpoint: far fewer records
        # than the 2 loads + 5 installs an untruncated log would hold.
        assert len(replica.wal) < 7
        restores_before = replica.checkpoints.restores
        db.fail_node("B")
        db.recover_node("B")
        db.quiesce()
        assert replica.checkpoints.restores > restores_before
        assert replica.store.read("x") == 5
        assert db.mutual_consistency().consistent

    def test_on_demand_checkpoint_via_manager(self):
        db = make_db()  # disarmed: no automatic cadence
        db.submit_update("ag", bump("y"), writes=["y"])
        db.quiesce()
        node = db.nodes["C"]
        ckpt = db.recovery.checkpoint_now(node, "F")
        assert ckpt.snapshot["y"].value == 1
        assert node.checkpoints.get("F") is ckpt
        assert db.metrics.value("recovery.checkpoints") == 1

    def test_build_checkpoint_cursor_matches_stream(self):
        db = make_db()
        for _ in range(3):
            db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        node = db.nodes["A"]
        ckpt = build_checkpoint(db, node, "F")
        assert ckpt.upto == node.streams.next_expected["F"]
        assert set(ckpt.snapshot) == {"x", "y"}


class TestSingleDonorCatchup:
    def test_rejoin_admits_each_missing_install_once(self):
        """Regression for the N x-redundant recovery exchange.

        The old anti-entropy asked *every* peer for its full archive, so
        a rejoiner missing k installs admitted ~k x (n-1) quasi
        transactions and relied on dedup to discard the overlap.  The
        cursor-based protocol picks one donor and ships the gap once.
        """
        db = make_db()
        for _ in range(3):
            db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        replica = db.nodes["B"]
        db.fail_node("B")
        # Middleware-gap idiom: the installs never reached the WAL.
        replica.wal._records = [
            r for r in replica.wal._records if r.kind == "load"
        ]
        admitted = []
        original = db.movement.admit

        def counting_admit(node, quasi):
            if node.name == "B":
                admitted.append((quasi.fragment, quasi.stream_seq))
            return original(node, quasi)

        db.movement.admit = counting_admit
        try:
            db.recover_node("B")
            db.quiesce()
        finally:
            db.movement.admit = original
        assert replica.store.read("x") == 3
        # Exactly the 3 missing installs, from exactly one donor — not
        # 6 (= 3 missing x 2 peers) as the all-peers exchange produced.
        assert sorted(admitted) == [("F", 0), ("F", 1), ("F", 2)]
        assert db.metrics.value("recovery.delta_qts_shipped") == 3

    def test_updates_during_downtime_ship_as_delta(self):
        db = make_db(recovery=RecoveryConfig(checkpoint_every=2, grace=None))
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        db.fail_node("C")
        for _ in range(4):
            db.submit_update("ag", bump("x"), writes=["x"])
        db.run(until=db.sim.now + 10)
        db.recover_node("C")
        db.quiesce()
        assert db.nodes["C"].store.read("x") == 5
        assert db.mutual_consistency().consistent
        assert db.fragmentwise_serializability().ok
        # grace=None pinned the watermark, so no checkpoint shipping.
        assert db.metrics.value("recovery.checkpoints_shipped") == 0

    def _cut_off_rejoiner(self):
        """D rejoins behind a partition: its requests wait unanswered."""
        db = FragmentedDatabase(["A", "B", "C", "D"])
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.add_agent("bg", home_node="B")
        db.add_fragment("G", agent="bg", objects=["y"])
        db.load({"x": 0, "y": 0})
        db.finalize()
        db.fail_node("D")
        db.submit_update("ag", bump("x"), writes=["x"])
        db.submit_update("bg", bump("y"), writes=["y"])
        db.run(until=db.sim.now + 5)
        db.partitions.partition_now([["D"], ["A", "B", "C"]])
        db.recover_node("D")
        return db

    def test_a_merge_asks_only_for_what_it_adds(self):
        """Asking again for a fragment already in flight sends nothing,
        burns no attempt and arms no second retry timer."""
        db = self._cut_off_rejoiner()
        pending = db.recovery._pending["D"]
        assert db.metrics.value("recovery.catchup_requests") == 1
        assert pending.tried == {"F": {"A"}, "G": {"A"}}
        timer = pending.timer
        db.recovery.catch_up(db.nodes["D"], ["F"])
        assert db.metrics.value("recovery.catchup_requests") == 1
        assert pending.tried == {"F": {"A"}, "G": {"A"}}
        assert (pending.attempts, pending.timer) == (1, timer)
        # One timer, so exactly the configured rounds: one per attempt.
        db.run(until=db.sim.now + 100)
        attempts = db.recovery.config.catchup_attempts
        assert db.metrics.value("recovery.catchup_requests") == attempts
        assert pending.attempts == attempts
        db.partitions.heal_now()
        db.quiesce()
        assert "D" not in db.recovery._pending
        assert db.nodes["D"].store.snapshot() == {"x": 1, "y": 1}

    def test_a_merge_for_a_snapshot_asks_its_first_donor(self):
        db = self._cut_off_rejoiner()
        db.recovery.catch_up(
            db.nodes["D"], ["F"], want_snapshot=True, donor="C"
        )
        pending = db.recovery._pending["D"]
        assert db.metrics.value("recovery.catchup_requests") == 2
        assert pending.tried == {"F": {"C"}, "G": {"A"}}
        assert pending.snapshot == {"F"}
        db.partitions.heal_now()
        db.quiesce()
        assert "D" not in db.recovery._pending
        assert db.metrics.value("recovery.checkpoints_shipped") == 1
        assert db.nodes["D"].store.snapshot() == {"x": 1, "y": 1}


class TestWatermarkCompaction:
    def test_archives_stay_bounded_under_cadence(self):
        """E13-style sustained traffic: retained state must go flat."""
        db = make_db(recovery=RecoveryConfig(checkpoint_every=5))
        sizes = []
        for batch in range(6):
            for _ in range(10):
                db.submit_update("ag", bump("x"), writes=["x"])
            db.quiesce()
            sizes.append(db.metrics.value("recovery.archive_entries"))
        # Bounded: the second half of the run retains no more than the
        # first half plus one checkpoint interval of slack.
        assert max(sizes[3:]) <= max(sizes[:3]) + 5 * len(db.nodes)
        for node in db.nodes.values():
            assert len(node.streams.archive["F"]) <= 10
            assert len(node.wal) <= 12
        assert db.metrics.value("recovery.archive_pruned") > 0
        assert db.mutual_consistency().consistent

    def test_grace_none_pins_watermark_while_down(self):
        db = make_db(recovery=RecoveryConfig(checkpoint_every=3, grace=None))
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        cursor = db.nodes["C"].streams.next_expected["F"]
        db.fail_node("C")
        for _ in range(12):
            db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        # Everything the downed replica is missing is still archived.
        donor_archive = db.nodes["A"].streams.archive["F"]
        missing = range(cursor, db.nodes["A"].streams.next_expected["F"])
        assert all(seq in donor_archive for seq in missing)

    def test_grace_exclusion_compacts_past_downed_cursor(self):
        db = make_db(recovery=RecoveryConfig(checkpoint_every=3, grace=20.0))
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        cursor = db.nodes["C"].streams.next_expected["F"]
        db.fail_node("C")
        for step in range(12):
            db.sim.schedule_at(
                db.sim.now + 5.0 * (step + 1),
                lambda: db.submit_update("ag", bump("x"), writes=["x"]),
            )
        db.quiesce()
        # The grace elapsed mid-run: the cluster compacted past the
        # downed replica's cursor.
        horizon = min(db.nodes["A"].streams.archive["F"], default=0)
        assert horizon > cursor


class TestSnapshotRejoin:
    def _run_far_behind_rejoin(self, trace_path=None):
        db = make_db(recovery=RecoveryConfig(checkpoint_every=3, grace=20.0))
        if trace_path is not None:
            db.enable_tracing(str(trace_path), context={"run": "rejoin@0"})
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        db.fail_node("C")
        for step in range(12):
            db.sim.schedule_at(
                db.sim.now + 5.0 * (step + 1),
                lambda: db.submit_update("ag", bump("x"), writes=["x"]),
            )
        db.quiesce()
        db.recover_node("C")
        db.quiesce()
        return db

    def test_below_horizon_rejoin_ships_checkpoint_plus_tail(self):
        db = self._run_far_behind_rejoin()
        assert db.nodes["C"].store.read("x") == 13
        assert db.mutual_consistency().consistent
        assert db.fragmentwise_serializability().ok
        assert db.metrics.value("recovery.checkpoints_shipped") >= 1
        assert db.metrics.value("recovery.snapshot_objects_shipped") >= 2
        # Shipped work scales with the gap, not the whole history: the
        # delta rode on top of the checkpoint, so it is strictly
        # smaller than the 12 missed installs.
        assert 0 < db.metrics.value("recovery.delta_qts_shipped") < 12

    def test_rejoin_trace_passes_offline_audit(self, tmp_path, capsys):
        trace = tmp_path / "rejoin.jsonl"
        db = self._run_far_behind_rejoin(trace_path=trace)
        db.tracer.close()
        assert cli_main(["audit", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "passed the audit" in out


class TestMoveWithDataDurability:
    def test_shipped_checkpoint_survives_destination_crash(self):
        """The carried fragment is durable at the new home.

        After a move-with-data, the destination's replica state came in
        on the token, not through its WAL.  The shipped checkpoint is
        persisted on arrival, so even with an empty WAL the new home
        recovers the carried values locally — no delta needs shipping.
        """
        db = make_db(movement=MoveWithDataProtocol())
        for _ in range(3):
            db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        db.move_agent("ag", "B", transport_delay=1.0)
        db.quiesce()
        replica = db.nodes["B"]
        assert replica.checkpoints.get("F") is not None
        db.fail_node("B")
        replica.wal._records = []  # even the loads are gone
        db.recover_node("B")
        db.quiesce()
        assert replica.store.read("x") == 3
        assert db.mutual_consistency().consistent
        assert db.metrics.value("recovery.delta_qts_shipped") == 0

    def test_move_still_counts_carried_state(self):
        db = make_db(movement=MoveWithDataProtocol())
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        db.move_agent("ag", "C", transport_delay=1.0)
        db.quiesce()
        assert db.movement.snapshots_carried == 1
        assert db.movement.objects_carried == 2


class TestChaosWithCheckpoints:
    def test_nemesis_guarantees_hold_with_recovery_armed(self):
        from repro.analysis.nemesis import NemesisConfig, run_nemesis

        config = NemesisConfig(
            n_crashes=2, n_partitions=1, checkpoint_every=5
        )
        for seed in (3, 11, 29):
            result = run_nemesis(seed, "with-seqno", config)
            assert result.respects_guarantees(), (seed, result.audit_first)
            assert result.checkpoints > 0

    def test_checkpoint_cli_benchmark_runs(self, capsys):
        assert cli_main(["checkpoint", "--updates", "24", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "snapshot" in out and "bytes-shipped" in out
