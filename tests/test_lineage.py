"""Causal lineage: span identity threaded commit -> install.

The tentpole contract: one :class:`SpanContext` stamped at commit is
visible at every later stage — the batcher's send, the broadcast's
wire events, the transport's retransmissions and duplicate drops, the
apply queue's install — so an offline reader can follow a transaction
through the pipeline without correlating sequence numbers by hand.
"""

from repro import FragmentedDatabase
from repro.analysis.audit import build_timeline
from repro.cc.ops import Read, Write
from repro.core.movement.corrective import CorrectiveMoveProtocol
from repro.net.faults import FaultPlan
from repro.obs import taxonomy
from repro.replication import PipelineConfig


def make_db(nodes=("A", "B", "C"), trace=True, **kwargs):
    db = FragmentedDatabase(list(nodes), **kwargs)
    if trace:
        db.enable_tracing()
    db.add_agent("ag", home_node=nodes[0])
    db.add_fragment("F", agent="ag", objects=["x", "y"])
    db.load({"x": 0, "y": 0})
    db.finalize()
    return db


def bump(obj="x"):
    def body(_ctx):
        value = yield Read(obj)
        yield Write(obj, value + 1)

    return body


def events_of(db, etype):
    return [e for e in db.tracer if e.type == etype]


class TestSpanStamping:
    def test_span_allocated_only_while_tracing(self):
        db = make_db(trace=False)
        db.submit_update("ag", bump(), reads=["x"], writes=["x"], txn_id="T0")
        db.quiesce()
        for node in db.nodes.values():
            for archive in node.streams.archive.values():
                for quasi in archive.values():
                    assert quasi.span is None

    def test_span_fields_propagate_to_install(self):
        db = make_db()
        db.submit_update("ag", bump(), reads=["x"], writes=["x"], txn_id="T0")
        db.quiesce()
        (commit,) = events_of(db, taxonomy.LINEAGE_COMMIT)
        assert commit.fields["txn"] == "T0"
        assert commit.fields["agent"] == "ag"
        assert commit.fields["fragment"] == "F"
        assert commit.fields["origin_node"] == "A"
        assert commit.fields["objects"] == ["x"]
        (send,) = events_of(db, taxonomy.LINEAGE_SEND)
        assert send.fields["txns"] == ["T0"]
        installs = events_of(db, taxonomy.QT_INSTALL)
        assert {e.fields["node"] for e in installs} == {"B", "C"}
        for install in installs:
            assert install.fields["batch_id"] == send.fields["batch_id"]
            assert install.fields["origin_node"] == "A"
            assert install.fields["agent"] == "ag"

    def test_batched_spans_share_batch_identity(self):
        db = make_db(pipeline=PipelineConfig(batch_size=4, batch_window=5.0))
        for index in range(3):
            db.sim.schedule_at(
                1.0,
                lambda i=index: db.submit_update(
                    "ag", bump(), reads=["x"], writes=["x"], txn_id=f"T{i}"
                ),
            )
        db.quiesce()
        sends = events_of(db, taxonomy.LINEAGE_SEND)
        assert len(sends) == 1  # one sealed batch carried all three
        assert sorted(sends[0].fields["txns"]) == ["T0", "T1", "T2"]
        for install in events_of(db, taxonomy.QT_INSTALL):
            assert install.fields["batch_id"] == sends[0].fields["batch_id"]


class TestRetransmitIdentity:
    def run_lossy(self):
        db = make_db(
            nodes=("A", "B", "C", "D"),
            faults=FaultPlan(loss_rate=0.4, dup_rate=0.2),
            seed=5,
        )
        for index in range(6):
            db.sim.schedule_at(
                float(index),
                lambda i=index: db.submit_update(
                    "ag", bump(), reads=["x"], writes=["x"], txn_id=f"T{i}"
                ),
            )
        db.quiesce()
        return db

    def test_retransmitted_batches_keep_span_identity(self):
        db = self.run_lossy()
        resends = [
            e for e in events_of(db, taxonomy.RETRANS_SEND)
            if e.fields["kind"] == "qt"
        ]
        assert resends, "loss at 40% must force qt retransmissions"
        known = {f"T{i}" for i in range(6)}
        for event in resends:
            assert set(event.fields["txns"]) <= known
            assert event.fields["txns"], "a qt resend names its cargo"

    def test_duplicate_drops_keep_span_identity(self):
        db = self.run_lossy()
        duplicates = [
            e
            for e in events_of(db, taxonomy.RETRANS_DUPLICATE)
            if e.fields.get("txns")
        ]
        assert duplicates, "dup-rate 20% must surface duplicate drops"
        known = {f"T{i}" for i in range(6)}
        for event in duplicates:
            assert set(event.fields["txns"]) <= known

    def test_lossy_run_still_installs_exactly_once(self):
        db = self.run_lossy()
        seen = set()
        for install in events_of(db, taxonomy.QT_INSTALL):
            key = (install.fields["source_txn"], install.fields["node"])
            assert key not in seen, f"double install {key}"
            seen.add(key)


class TestRepackagedLineage:
    def test_repackaged_orphan_carries_parent_link(self):
        db = make_db(movement=CorrectiveMoveProtocol())
        db.sim.schedule_at(
            1, lambda: db.partitions.partition_now([["A"], ["B", "C"]])
        )
        db.sim.schedule_at(
            5,
            lambda: db.submit_update(
                "ag", bump(), reads=["x"], writes=["x"], txn_id="T1"
            ),
        )
        db.sim.schedule_at(10, lambda: db.move_agent("ag", "B"))
        db.sim.schedule_at(
            25,
            lambda: db.submit_update(
                "ag", bump("y"), reads=["y"], writes=["y"], txn_id="T2"
            ),
        )
        db.sim.schedule_at(60, db.partitions.heal_now)
        db.quiesce()
        commits = {
            e.fields["txn"]: e for e in events_of(db, taxonomy.LINEAGE_COMMIT)
        }
        assert "rp:T1" in commits, "the orphan was repackaged"
        assert commits["rp:T1"].fields["parent"] == "T1"
        # The timeline of T1 follows the parent link into rp:T1.
        timeline = build_timeline(
            [e.as_dict() for e in db.tracer], "T1"
        )
        types = [e["type"] for e in timeline]
        assert taxonomy.LINEAGE_COMMIT in types
        assert any(
            e["type"] == taxonomy.QT_INSTALL
            and e["source_txn"] == "rp:T1"
            for e in timeline
        )


class TestStageHistograms:
    def test_queue_wait_and_propagation_observed_without_tracing(self):
        db = make_db(trace=False)
        db.submit_update("ag", bump(), reads=["x"], writes=["x"], txn_id="T0")
        db.quiesce()
        snap = db.snapshot()["histograms"]
        assert snap["pipeline.batch_wait"]["count"] == 1
        assert snap["pipeline.transport_wait"]["count"] >= 1
        assert snap["pipeline.apply_wait"]["count"] == 2  # installs at B, C
        prop = snap["pipeline.propagation.F"]
        assert prop["count"] == 2
        assert prop["min"] > 0.0  # network latency is nonzero

    def test_propagation_excludes_origin_install(self):
        db = make_db()
        db.submit_update("ag", bump(), reads=["x"], writes=["x"], txn_id="T0")
        db.quiesce()
        # 3 nodes, 1 commit: origin applies at commit, two remote
        # installs feed the propagation histogram.
        assert db.metrics.value("pipeline.propagation.F")["count"] == 2
