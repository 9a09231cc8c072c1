"""Tests for the crash-stop failure model and WAL recovery."""

from repro import FragmentedDatabase, MajorityCommitProtocol, RequestStatus
from repro.cc.ops import Read, Write


def make_db(nodes=("A", "B", "C"), **kwargs):
    db = FragmentedDatabase(list(nodes), **kwargs)
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


class TestCrash:
    def test_crash_wipes_volatile_state(self):
        db = make_db()
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        replica = db.nodes["B"]
        assert replica.store.read("x") == 1
        db.fail_node("B")
        assert replica.down
        assert not replica.store.exists("x")
        assert replica.scheduler.active == {}

    def test_crash_aborts_inflight_transactions(self):
        db = make_db()
        db.nodes["A"].scheduler.action_delay = 5.0

        def slow(_ctx):
            yield Write("x", 1)
            yield Write("y", 1)

        tracker = db.submit_update("ag", slow, writes=["x", "y"])
        db.run(until=2)
        db.fail_node("A")
        assert tracker.status is RequestStatus.ABORTED
        assert "crashed" in tracker.reason

    def test_messages_to_down_node_are_held(self):
        db = make_db()
        db.fail_node("B")
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        assert db.network.held_count() > 0
        assert db.nodes["C"].store.read("x") == 1

    def test_loopback_landing_on_a_crashed_node_is_counted_not_held(self):
        """A loopback never crosses a link, so no hold stops it: sent
        before the crash and due after it, it is lost with the node's
        volatile state — and shows up in a counter."""
        db = make_db()
        db.network.send("B", "B", "anything", None)
        db.fail_node("B")
        db.quiesce()
        assert db.network.held_count() == 0
        assert db.metrics.value("node.dropped_while_down") == 1

    def test_double_fail_is_idempotent(self):
        db = make_db()
        db.fail_node("B")
        db.fail_node("B")
        assert db.nodes["B"].crashes == 1


class TestRecovery:
    def test_wal_replay_restores_stable_state(self):
        db = make_db()
        for _ in range(3):
            db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        db.fail_node("B")
        db.recover_node("B")
        db.quiesce()
        assert db.nodes["B"].store.read("x") == 3
        assert db.mutual_consistency().consistent

    def test_updates_during_downtime_arrive_after_recovery(self):
        db = make_db()
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        db.fail_node("B")
        for _ in range(4):
            db.submit_update("ag", bump("x"), writes=["x"])
        db.run(until=db.sim.now + 10)
        db.recover_node("B")
        db.quiesce()
        assert db.nodes["B"].store.read("x") == 5
        assert db.mutual_consistency().consistent
        assert db.fragmentwise_serializability().ok

    def test_recovered_node_serves_reads(self):
        db = make_db()
        db.submit_update("ag", bump("y"), writes=["y"])
        db.quiesce()
        db.fail_node("C")
        db.recover_node("C")
        db.quiesce()
        results = []

        def reader(_ctx):
            results.append((yield Read("y")))

        db.submit_readonly("ag", reader, at="C", reads=["y"])
        db.quiesce()
        assert results == [1]

    def test_agent_home_crash_and_recovery(self):
        db = make_db()
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        db.fail_node("A")  # the agent's own home
        rejected = None
        db.run(until=db.sim.now + 5)
        db.recover_node("A")
        db.quiesce()
        tracker = db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        assert tracker.succeeded
        assert db.nodes["B"].store.read("x") == 2
        assert db.mutual_consistency().consistent

    def test_agent_escapes_crashed_home_then_home_recovers(self):
        """§4.4: node failure motivates the move; recovery converges."""
        db = make_db(movement=MajorityCommitProtocol())
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        db.fail_node("A")
        db.move_agent("ag", "B", transport_delay=1.0)
        db.run(until=db.sim.now + 30)
        tracker = db.submit_update("ag", bump("x"), writes=["x"])
        db.run(until=db.sim.now + 30)
        assert tracker.succeeded
        db.recover_node("A")
        db.quiesce()
        assert db.nodes["A"].store.read("x") == 2
        assert db.mutual_consistency().consistent
        assert db.fragmentwise_serializability().ok

    def test_wal_metrics(self):
        db = make_db()
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        replica = db.nodes["B"]
        appends_before = replica.wal.appends
        assert appends_before >= 3  # 2 loads + 1 install
        db.fail_node("B")
        db.recover_node("B")
        assert replica.wal.replays >= 1

    def test_anti_entropy_fills_middleware_gap(self):
        """A quasi-transaction handed over by the broadcast middleware
        moments before the crash never reached the WAL; peers refill it."""
        db = make_db()
        db.submit_update("ag", bump("x"), writes=["x"])
        db.quiesce()
        replica = db.nodes["B"]
        # Simulate the gap: wipe the install from the WAL's perspective
        # by crashing, then hand-shrinking the log to pre-install state.
        db.fail_node("B")
        replica.wal._records = [
            r for r in replica.wal._records if r.kind == "load"
        ]
        db.recover_node("B")
        db.quiesce()
        assert replica.store.read("x") == 1  # refilled by anti-entropy
        assert db.mutual_consistency().consistent
