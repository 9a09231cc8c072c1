"""The unified replication pipeline: batching and backpressure.

Covers the pipeline stages introduced by the ``repro.replication``
package: group-commit batching (sealed by count and by simulated-time
window), the default configuration's bit-compatibility with unbatched
propagation, crash semantics of the batcher (pending batches survive
the origin's crash and flush at recovery), and bounded apply queues
engaging backpressure that throttles the fragment's agent.
"""

import pytest

from repro import (
    FragmentedDatabase,
    InstantMoveProtocol,
    PipelineConfig,
    QtBatch,
)
from repro.cc.ops import Read, Write
from repro.core.movement.base import MovementProtocol
from repro.net import FaultPlan
from repro.obs import taxonomy
from repro.replication import (
    BlindAdmission,
    OrderedAdmission,
)


def bump(obj="x"):
    def body(_ctx):
        value = yield Read(obj)
        yield Write(obj, value + 1)

    return body


def make_db(nodes=("A", "B", "C"), objects=("x",), **kwargs):
    db = FragmentedDatabase(list(nodes), **kwargs)
    db.add_agent("ag", home_node=nodes[0])
    db.add_fragment("F", agent="ag", objects=list(objects))
    db.load({obj: 0 for obj in objects})
    db.finalize()
    return db


class TestPipelineConfig:
    def test_defaults_disable_batching(self):
        config = PipelineConfig()
        assert not config.batching
        assert config.max_apply_queue is None

    def test_batching_property(self):
        assert PipelineConfig(batch_size=2).batching
        assert PipelineConfig(batch_window=5.0).batching

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(batch_size=0)
        with pytest.raises(ValueError):
            PipelineConfig(batch_window=-1.0)
        with pytest.raises(ValueError):
            PipelineConfig(max_apply_queue=0)

    def test_qtbatch_is_frozen(self):
        batch = QtBatch(origin="A", qts=(), created_at=0.0)
        with pytest.raises(AttributeError):
            batch.origin = "B"


class TestDefaultUnbatched:
    def test_one_message_per_quasi_transaction(self):
        db = make_db()
        for _ in range(5):
            db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        # Direct path: every commit is its own single-member batch.
        assert db.metrics.value("replication.qt_submitted") == 5
        assert db.metrics.value("replication.batches_sent") == 5
        assert db.network.messages_by_kind["qt"] == 5 * 2  # two receivers
        assert db.mutual_consistency().consistent

    def test_no_batch_flush_trace_events_by_default(self):
        db = make_db()
        db.enable_tracing()
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        assert db.tracer.counts("replication.") == {}

    def test_no_extra_simulator_events(self):
        """The direct path must not schedule flush timers."""
        db = make_db()
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        assert db.pipeline.batcher.pending_count() == 0
        assert not db.pipeline.batcher._timers


class TestBatchingByCount:
    def test_batch_seals_at_count(self):
        db = make_db(pipeline=PipelineConfig(batch_size=3, batch_window=50.0))
        for _ in range(6):
            db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        assert db.metrics.value("replication.qt_submitted") == 6
        assert db.metrics.value("replication.batches_sent") == 2
        assert db.network.messages_by_kind["qt"] == 2 * 2
        assert db.nodes["B"].store.read("x") == 6
        assert db.mutual_consistency().consistent

    def test_partial_batch_flushes_on_window(self):
        db = make_db(pipeline=PipelineConfig(batch_size=10, batch_window=4.0))
        db.submit_update("ag", bump(), writes=["x"])
        db.run(until=2.0)
        # Still pending: the window has not elapsed, nothing broadcast.
        assert db.pipeline.batcher.pending_count() == 1
        assert db.nodes["B"].store.read("x") == 0
        db.quiesce()
        assert db.pipeline.batcher.pending_count() == 0
        assert db.metrics.value("replication.batches_sent") == 1
        assert db.nodes["B"].store.read("x") == 1
        assert db.mutual_consistency().consistent

    def test_batch_flush_trace_event(self):
        db = make_db(pipeline=PipelineConfig(batch_size=2, batch_window=60.0))
        db.enable_tracing()
        db.submit_update("ag", bump(), writes=["x"])
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        flushes = db.tracer.events(taxonomy.QT_BATCH_FLUSH)
        assert len(flushes) == 1
        assert flushes[0].fields["count"] == 2
        assert flushes[0].fields["sealed_by"] == "count"

    def test_batch_fill_histogram(self):
        db = make_db(pipeline=PipelineConfig(batch_size=4, batch_window=100.0))
        for _ in range(4):
            db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        fills = db.metrics.histogram("replication.batch_fill").values
        assert 4 in fills

    def test_ordering_preserved_across_batches(self):
        db = make_db(pipeline=PipelineConfig(batch_size=4, batch_window=3.0))
        for i in range(10):
            db.sim.schedule_at(
                float(i), lambda: db.submit_update("ag", bump(), writes=["x"])
            )
        db.quiesce()
        for node in db.nodes.values():
            assert node.store.read("x") == 10
        assert db.mutual_consistency().consistent
        assert db.fragmentwise_serializability().ok


class TestBatcherCrashSemantics:
    def test_pending_batch_survives_origin_crash(self):
        """A batch sealed while its origin is down is held, not lost:
        it flushes when the origin recovers (WAL has its members)."""
        db = make_db(pipeline=PipelineConfig(batch_size=10, batch_window=5.0))
        db.submit_update("ag", bump(), writes=["x"])
        db.submit_update("ag", bump(), writes=["x"])
        db.run(until=1.0)  # committed at A, batch still pending
        assert db.pipeline.batcher.pending_count() == 2
        db.fail_node("A")
        db.run(until=20.0)  # the window timer was suspended by the crash
        assert db.pipeline.batcher.pending_count() == 2
        assert db.nodes["B"].store.read("x") == 0
        db.recover_node("A")
        db.quiesce()
        assert db.nodes["B"].store.read("x") == 2
        assert db.nodes["C"].store.read("x") == 2
        assert db.mutual_consistency().consistent


class TestBackpressure:
    def heal_flood_db(self):
        """12 updates commit while C is partitioned away; the heal dumps
        the whole backlog on C in one wave."""
        db = make_db(
            action_delay=0.5,
            pipeline=PipelineConfig(max_apply_queue=4),
        )
        db.partitions.partition_now([["A", "B"], ["C"]])
        for i in range(12):
            db.sim.schedule_at(
                float(i), lambda: db.submit_update("ag", bump(), writes=["x"])
            )
        db.sim.schedule_at(30.0, db.partitions.heal_now)
        return db

    def test_flooded_replica_engages_and_releases(self):
        db = self.heal_flood_db()
        late = []
        for i in range(4):
            db.sim.schedule_at(
                32.0 + i,
                lambda: late.append(
                    db.submit_update("ag", bump(), writes=["x"])
                ),
            )
        db.quiesce()
        assert db.metrics.value("replication.backpressure.engaged") >= 1
        assert db.metrics.value("replication.backpressure.released") >= 1
        assert db.metrics.value("replication.backpressure.throttled") >= 1
        # Deferred submissions were delayed, not dropped.
        assert all(t.succeeded for t in late)
        for node in db.nodes.values():
            assert node.store.read("x") == 16
        assert db.mutual_consistency().consistent
        assert not db.pipeline.backpressure.engaged("F")

    def test_throttle_events_traced(self):
        db = self.heal_flood_db()
        db.enable_tracing()
        for i in range(3):
            db.sim.schedule_at(
                32.0 + i,
                lambda: db.submit_update("ag", bump(), writes=["x"]),
            )
        db.quiesce()
        types = db.tracer.counts("replication.backpressure.")
        assert types.get(taxonomy.BACKPRESSURE_ENGAGE, 0) >= 1
        assert types.get(taxonomy.BACKPRESSURE_RELEASE, 0) >= 1
        assert types.get(taxonomy.BACKPRESSURE_THROTTLE, 0) >= 1
        assert types.get(taxonomy.BACKPRESSURE_RESUME, 0) >= 1

    def test_crashed_replica_disengages(self):
        """A lagging replica that crashes must not throttle forever:
        its volatile backlog is gone with it."""
        db = self.heal_flood_db()
        db.sim.schedule_at(31.5, lambda: db.fail_node("C"))
        late = []
        db.sim.schedule_at(
            33.0,
            lambda: late.append(db.submit_update("ag", bump(), writes=["x"])),
        )
        db.sim.schedule_at(60.0, lambda: db.recover_node("C"))
        db.quiesce()
        assert all(t.succeeded for t in late)
        assert db.nodes["C"].store.read("x") == 13
        assert db.mutual_consistency().consistent

    def test_unbounded_by_default(self):
        db = make_db(action_delay=0.5)
        db.partitions.partition_now([["A", "B"], ["C"]])
        for i in range(12):
            db.sim.schedule_at(
                float(i), lambda: db.submit_update("ag", bump(), writes=["x"])
            )
        db.sim.schedule_at(30.0, db.partitions.heal_now)
        db.quiesce()
        assert db.metrics.value("replication.backpressure.engaged") == 0
        assert db.mutual_consistency().consistent


class TestFifoAblationWithBatching:
    """Batching under the FIFO ablation (E12a's arms).

    The channel genuinely reorders messages; ``reliable=True`` restores
    per-channel FIFO with the transport's sequence numbers,
    ``reliable=False`` leaves requirement 3.2-(2) unmet.  A batch rides
    one message, so a non-FIFO network can permute whole batches but
    never interleave the members of one batch: the reorder boundary is
    the batch boundary.
    """

    def reorder_db(self, fifo, pipeline=None, seed=2):
        db = FragmentedDatabase(
            ["A", "B", "C"],
            movement=InstantMoveProtocol(),
            seed=seed,
            pipeline=pipeline,
            faults=FaultPlan(jitter=5.0),
            reliable=fifo,
        )
        db.network.fifo_channels = False
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.load({"x": 0})
        db.finalize()
        return db

    def drive(self, db, n=10):
        installs = {name: [] for name in db.nodes}
        db.on_install(
            "F",
            lambda node, quasi: installs[node.name].append(quasi.source_txn),
        )

        def setx(value):
            def body(_ctx):
                yield Write("x", value)

            return body

        for i in range(n):
            db.sim.schedule_at(
                float(i),
                lambda i=i: db.submit_update(
                    "ag", setx(i), writes=["x"], txn_id=f"T{i}"
                ),
            )
        db.quiesce()
        return installs

    def test_batch_members_never_split_by_reorder(self):
        db = self.reorder_db(
            fifo=False, pipeline=PipelineConfig(batch_size=4, batch_window=3.0)
        )
        db.enable_tracing()
        installs = self.drive(db)
        batches = [
            event.fields["txns"]
            for event in db.tracer.events(taxonomy.QT_BATCH_FLUSH)
        ]
        assert len(batches) >= 2
        for name in ("B", "C"):
            sequence = installs[name]
            for members in batches:
                positions = [sequence.index(txn) for txn in members]
                # One contiguous ascending run: the batch arrived (and
                # installed) as a unit even though batches reordered.
                assert positions == list(
                    range(positions[0], positions[0] + len(members))
                )

    def test_fifo_with_batching_stays_consistent(self):
        db = self.reorder_db(
            fifo=True, pipeline=PipelineConfig(batch_size=4, batch_window=3.0)
        )
        self.drive(db)
        assert db.mutual_consistency().consistent

    def test_mc_break_still_reproduces_with_batching(self):
        """The E12a divergence demo survives batching: reordered batches
        still land in different arrival orders at different replicas."""
        broken = False
        for seed in range(8):
            db = self.reorder_db(
                fifo=False,
                pipeline=PipelineConfig(batch_size=2, batch_window=1.5),
                seed=seed,
            )
            self.drive(db)
            if not db.mutual_consistency().consistent:
                broken = True
                break
        assert broken


class TestAdmissionPolicies:
    def test_default_protocol_uses_ordered_admission(self):
        assert isinstance(MovementProtocol.admission, OrderedAdmission)

    def test_instant_move_uses_blind_admission(self):
        assert isinstance(InstantMoveProtocol.admission, BlindAdmission)

    def test_no_private_install_paths(self):
        """Every movement protocol routes installs through
        node.enqueue_install -> FragmentApplyQueue (single seam)."""
        db = make_db(movement=InstantMoveProtocol())
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        for name in ("B", "C"):
            assert db.nodes[name].quasi_installed == 1
        assert db.mutual_consistency().consistent
