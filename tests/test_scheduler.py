"""Tests for the strict-2PL local scheduler."""

import pytest

from repro.cc import (
    LocalScheduler,
    Read,
    TxnOutcome,
    Write,
    is_conflict_serializable,
)
from repro.errors import SimulationError, TransactionAborted
from repro.sim import Simulator
from repro.storage import ObjectStore, Version


def make_scheduler(initial=None, action_delay=0.0):
    sim = Simulator()
    store = ObjectStore("n")
    store.load({"x": 0, "y": 0, "z": 0, **(initial or {})})
    sched = LocalScheduler("n", store, sim=sim, action_delay=action_delay)
    return sim, store, sched


def transfer(src, dst, amount):
    def body(_ctx):
        a = yield Read(src)
        b = yield Read(dst)
        yield Write(src, a - amount)
        yield Write(dst, b + amount)
        return "done"

    return body


class TestBasicExecution:
    def test_commit_applies_writes(self):
        sim, store, sched = make_scheduler({"x": 10, "y": 0})
        outcomes = []
        sched.submit(
            "T1",
            transfer("x", "y", 3),
            on_done=lambda h, o, e: outcomes.append(o),
        )
        sim.run()
        assert outcomes == [TxnOutcome.COMMITTED]
        assert store.read("x") == 7
        assert store.read("y") == 3

    def test_result_captured(self):
        sim, store, sched = make_scheduler()
        results = []
        sched.submit(
            "T1",
            transfer("x", "y", 1),
            on_done=lambda h, o, e: results.append(h.result),
        )
        sim.run()
        assert results == ["done"]

    def test_read_your_own_write(self):
        sim, store, sched = make_scheduler({"x": 1})
        seen = []

        def body(_ctx):
            yield Write("x", 42)
            value = yield Read("x")
            seen.append(value)

        sched.submit("T1", body)
        sim.run()
        assert seen == [42]

    def test_deferred_writes_not_visible_before_commit(self):
        sim, store, sched = make_scheduler({"x": 1})

        def body(_ctx):
            yield Write("x", 99)
            # Store still has the committed value mid-transaction.
            assert store.read("x") == 1
            yield Read("y")

        sched.submit("T1", body)
        sim.run()
        assert store.read("x") == 99

    def test_version_numbers_increment(self):
        sim, store, sched = make_scheduler({"x": 0})
        for i in range(3):
            sched.submit(f"T{i}", transfer("x", "y", 1))
        sim.run()
        assert store.read_version("x").version_no == 3
        assert store.read_version("x").writer == "T2"

    def test_body_abort_propagates(self):
        sim, store, sched = make_scheduler()
        outcomes = []

        def body(_ctx):
            yield Write("x", 5)
            raise TransactionAborted("T1", "changed my mind")

        sched.submit("T1", body, on_done=lambda h, o, e: outcomes.append(o))
        sim.run()
        assert outcomes == [TxnOutcome.ABORTED]
        assert store.read("x") == 0  # buffered write discarded

    def test_body_bug_aborts_and_releases_locks(self):
        """A body that raises anything else (here: str + int) must not
        escape with its locks held — the next transaction on the same
        object would wait forever."""
        sim, store, sched = make_scheduler({"x": "text"})
        done = []

        def buggy(_ctx):
            value = yield Read("x")
            yield Write("x", value + 1)

        sched.submit("T1", buggy, on_done=lambda h, o, e: done.append((o, e)))
        sim.run()
        (outcome, error), = done
        assert outcome is TxnOutcome.ABORTED
        assert error.reason.startswith("TypeError: ")
        assert not sched.active
        assert sched.locks.holders_of("x") == {}
        sched.submit("T2", lambda _ctx: (yield Write("x", "next")))
        sim.run()
        assert store.read("x") == "next"
        assert not sched.active

    def test_duplicate_txn_id_rejected(self):
        sim, store, sched = make_scheduler(action_delay=1.0)
        sched.submit("T1", transfer("x", "y", 1))
        with pytest.raises(SimulationError):
            sched.submit("T1", transfer("x", "y", 1))

    def test_unknown_op_rejected(self):
        sim, store, sched = make_scheduler()

        def body(_ctx):
            yield "not an op"

        with pytest.raises(SimulationError):
            sched.submit("T1", body)

    def test_reads_record_versions(self):
        sim, store, sched = make_scheduler({"x": 5})
        handles = []
        sched.submit(
            "T1", transfer("x", "y", 1), on_done=lambda h, o, e: handles.append(h)
        )
        sim.run()
        (handle,) = handles
        assert handle.read_set == ["x", "y"]
        assert handle.reads[0][1].writer == "@init"


class TestBlockingAndInterleaving:
    def test_writer_blocks_reader_until_commit(self):
        sim, store, sched = make_scheduler({"x": 0}, action_delay=1.0)
        order = []

        def writer(_ctx):
            yield Write("x", 1)
            yield Write("y", 1)
            order.append("writer-done")

        def reader(_ctx):
            value = yield Read("x")
            order.append(("reader-saw", value))

        sched.submit("W", writer)
        sched.submit("R", reader)
        sim.run()
        assert order == ["writer-done", ("reader-saw", 1)]

    def test_concurrent_transfers_stay_serializable(self):
        sim, store, sched = make_scheduler(
            {"a": 100, "b": 100, "c": 100}, action_delay=1.0
        )
        sched.record_actions = True
        sched.submit("T1", transfer("a", "b", 10))
        sched.submit("T2", transfer("b", "c", 20))
        sched.submit("T3", transfer("c", "a", 30))
        sim.run()
        # Money conserved regardless of commit/abort mix.
        total = store.read("a") + store.read("b") + store.read("c")
        assert total == 300
        committed = [
            a for a in sched.action_history
        ]  # history excludes aborted-after-the-fact effects; the
        # conflict graph over it must still be acyclic.
        assert is_conflict_serializable(committed)

    def test_deadlock_detected_and_victim_aborted(self):
        sim, store, sched = make_scheduler({"x": 0, "y": 0}, action_delay=1.0)
        outcomes = {}

        def t1(_ctx):
            yield Write("x", 1)
            yield Write("y", 1)

        def t2(_ctx):
            yield Write("y", 2)
            yield Write("x", 2)

        sched.submit("T1", t1, on_done=lambda h, o, e: outcomes.update({"T1": o}))
        sched.submit("T2", t2, on_done=lambda h, o, e: outcomes.update({"T2": o}))
        sim.run()
        assert sched.deadlocks >= 1
        assert sorted(outcomes.values(), key=lambda o: o.value) == [
            TxnOutcome.ABORTED,
            TxnOutcome.COMMITTED,
        ]
        # The survivor's writes applied consistently.
        assert store.read("x") == store.read("y")

    def test_three_way_upgrade_deadlock_resolved(self):
        sim, store, sched = make_scheduler(
            {"x": 0, "g1": 0, "g2": 0, "g3": 0}, action_delay=1.0
        )
        outcomes = []

        def body(gate):
            def inner(_ctx):
                value = yield Read("x")
                yield Read(gate)
                yield Write("x", value + 1)

            return inner

        for i, gate in enumerate(["g1", "g2", "g3"]):
            sched.submit(
                f"T{i}", body(gate), on_done=lambda h, o, e: outcomes.append(o)
            )
        sim.run()
        assert len(outcomes) == 3
        assert TxnOutcome.COMMITTED in outcomes
        assert not sched.active  # nothing stuck

    def test_chain_of_waiters_drains(self):
        sim, store, sched = make_scheduler({"x": 0}, action_delay=1.0)
        done = []
        for i in range(6):
            sched.submit(
                f"T{i}",
                transfer("x", "y", 1),
                on_done=lambda h, o, e: done.append(o),
            )
        sim.run()
        # Six S->X upgraders on one hot object: upgrade deadlocks abort
        # all but the survivors (clients would retry).  What matters is
        # that every transaction reached a terminal state and the
        # scheduler fully drained.
        assert len(done) == 6
        assert done.count(TxnOutcome.COMMITTED) >= 1
        assert not sched.active


class TestQuasiTransactions:
    def test_quasi_installs_preassigned_versions(self):
        sim, store, sched = make_scheduler({"x": 0, "y": 0})
        version_x = Version(10, "remoteT", 7, 3.0)
        version_y = Version(20, "remoteT", 7, 3.0)
        sched.submit_quasi("q1", [("x", version_x), ("y", version_y)])
        sim.run()
        assert store.read_version("x") == version_x
        assert store.read_version("y") == version_y

    def test_quasi_blocks_behind_reader_then_installs(self):
        sim, store, sched = make_scheduler({"x": 0}, action_delay=1.0)
        seen = []

        def reader(_ctx):
            value = yield Read("x")
            yield Read("y")  # keeps the S lock held for a while
            seen.append(value)

        sched.submit("R", reader)
        sched.submit_quasi("q1", [("x", Version(5, "rT", 1, 1.0))])
        sim.run()
        assert seen == [0]  # reader saw the pre-install value
        assert store.read("x") == 5

    def test_quasi_atomicity_no_partial_reads(self):
        sim, store, sched = make_scheduler({"x": 0, "y": 0}, action_delay=1.0)
        observations = []

        def reader(_ctx):
            a = yield Read("x")
            b = yield Read("y")
            observations.append((a, b))

        sched.submit_quasi(
            "q1",
            [("x", Version(1, "rT", 1, 1.0)), ("y", Version(1, "rT", 1, 1.0))],
        )
        sched.submit("R", reader)
        sim.run()
        assert observations[0] in [(0, 0), (1, 1)]  # never torn


class TestExternalLocks:
    def test_all_or_nothing_grant(self):
        sim, store, sched = make_scheduler({"x": 0, "y": 0})
        assert sched.try_lock_external("rl:1", ["x", "y"])
        holders = sched.locks.holders_of("x")
        assert "rl:1" in holders

    def test_bounce_when_exclusively_held(self):
        sim, store, sched = make_scheduler({"x": 0}, action_delay=1.0)

        def writer(_ctx):
            yield Write("x", 1)
            yield Read("y")  # keeps the X lock held across sim time

        sched.submit("W", writer)  # X on x taken by the first action
        assert not sched.try_lock_external("rl:1", ["x"])
        # Nothing was queued: the probe must leave no residue.
        assert sched.locks.queued_for("x") == []

    def test_bounce_when_writer_queued(self):
        sim, store, sched = make_scheduler({"x": 0}, action_delay=1.0)

        def reader(_ctx):
            yield Read("x")
            yield Read("y")

        def writer(_ctx):
            yield Write("x", 1)

        sched.submit("R", reader)  # S on x
        sched.submit("W", writer)  # X queued behind R
        # Strict FIFO: an external probe must not overtake the queued X.
        assert not sched.try_lock_external("rl:1", ["x"])

    def test_release_external_wakes_waiters(self):
        sim, store, sched = make_scheduler({"x": 0}, action_delay=1.0)
        assert sched.try_lock_external("rl:1", ["x"])
        done = []
        sched.submit(
            "W", transfer("x", "y", 1), on_done=lambda h, o, e: done.append(o)
        )
        sim.run()
        assert done == []  # writer stuck behind the external S lock
        sched.release_external("rl:1")
        sim.run()
        assert done == [TxnOutcome.COMMITTED]

    def test_external_shared_with_local_readers(self):
        sim, store, sched = make_scheduler({"x": 0})
        assert sched.try_lock_external("rl:1", ["x"])
        seen = []

        def reader(_ctx):
            seen.append((yield Read("x")))

        sched.submit("R", reader)
        sim.run()
        assert seen == [0]


class TestApplyVeto:
    def test_apply_hook_can_veto_commit(self):
        sim = Simulator()
        store = ObjectStore("n")
        store.load({"x": 0})

        def veto(handle):
            raise TransactionAborted(handle.txn_id, "policy says no")

        sched = LocalScheduler("n", store, sim=sim, apply_writes=veto)
        outcomes = []

        def body(_ctx):
            yield Write("x", 1)

        sched.submit("T1", body, on_done=lambda h, o, e: outcomes.append((o, e)))
        sim.run()
        assert outcomes[0][0] is TxnOutcome.ABORTED
        assert "policy says no" in str(outcomes[0][1])
        assert store.read("x") == 0
        assert not sched.active

    def test_remote_version_override(self):
        sim, store, sched = make_scheduler({"x": 0})
        pinned = Version(77, "far-away", 9, 1.0)
        seen = []

        def body(_ctx):
            seen.append((yield Read("x")))

        sched.submit("T1", body, meta={"remote_versions": {"x": pinned}})
        sim.run()
        assert seen == [77]


class TestActionDelayValidation:
    def test_action_delay_without_sim_rejected(self):
        store = ObjectStore("n")
        with pytest.raises(SimulationError):
            LocalScheduler("n", store, sim=None, action_delay=1.0)
