"""Availability supervisor: detection, failover, demotion, reconfiguration.

The paper leaves the *trigger* for agent movement after a home-node
crash to an operator (Section 4.4); the supervisor closes that loop.
These tests pin the behavioural contract end to end:

* heartbeat detection + succession elect a live replica and move the
  token through the ordinary movement machinery;
* updates rejected while the home is down commit after failover — the
  outage is bounded (the MTTR claim), and the whole run survives the
  offline lineage audit including the epoch-fencing check;
* a committed-but-unpropagated suffix stranded on a crashed home is
  discarded at demotion — counted, and absent from every replica —
  even when failover interleaves with crash recovery;
* demotion is recovery for one fragment: an ex-home whose checkpoint
  covered part of that suffix drops it and is caught up with a
  snapshot, whether it rejoins at the cut start or behind it;
* a k=2 fragment can never fail over (no provable majority), and the
  detector backs off instead of hammering the dead home;
* quorum reads re-size and retry once after an online reconfiguration
  shrinks the countable replica set, instead of timing out against
  membership that no longer exists;
* online add/remove of replicas syncs joiners through catch-up, purges
  leavers, and refuses the configurations that can lose data.
"""

import pytest

from repro import (
    DesignError,
    FragmentedDatabase,
    InstantMoveProtocol,
    QuorumConfig,
    RecoveryConfig,
    RequestStatus,
)
from repro.analysis.audit import audit_events
from repro.availability import AvailabilityConfig
from repro.cc.ops import Write


def write_body(obj, value):
    def body(_ctx):
        yield Write(obj, value)

    return body


#: Fast-but-sound detector for tests: the pong deadline (= interval)
#: must exceed the unicast round trip or a live home gets suspected.
FAST = dict(
    heartbeat_interval=3.0,
    suspect_after=2,
    succession_timeout=6.0,
    takeover_delay=1.0,
)


def make_db(
    quorum=None, availability=None, replicas=("A", "B", "C"), recovery=None
):
    """Five nodes; fragment F restricted to ``replicas`` (home A).

    F holds ``x``, which the tests write, and ``y``, which only the
    initial load and checkpoint snapshots ever carry.
    """
    db = FragmentedDatabase(
        ["A", "B", "C", "D", "E"],
        quorum=quorum,
        availability=availability,
        recovery=recovery,
    )
    db.enable_tracing(None)
    db.add_agent("ag", home_node="A")
    db.add_fragment("F", agent="ag", objects=["x", "y"])
    db.set_replication("F", list(replicas))
    db.load({"x": 0, "y": 0})
    db.finalize()
    return db


class TestFailover:
    def test_detection_failover_and_bounded_outage(self):
        db = make_db(availability=AvailabilityConfig(**FAST))
        db.availability.start(until=250.0)
        db.submit_update("ag", write_body("x", 7), writes=["x"])
        db.run(until=10.0)

        db.fail_node("A")
        rejected = db.submit_update("ag", write_body("x", 8), writes=["x"])
        db.run(until=db.sim.now + 40)

        # Loud rejection while the home was down, then failover.
        assert rejected.status is RequestStatus.REJECTED
        assert "down" in rejected.reason
        assert db.metrics.value("avail.updates_blocked") == 1
        assert db.metrics.value("avail.suspicions") >= 1
        assert db.metrics.value("avail.failovers") == 1
        assert db.metrics.value("avail.epoch_cuts") == 1
        assert db.metrics.value("avail.mttr")["count"] == 1

        # The agent re-homed inside the replica set, in a new epoch.
        new_home = db.agents["ag"].home_node
        assert new_home in {"B", "C"}
        assert db.agents["ag"].token_for("F").payload["epoch"] >= 1

        # The outage is over: the resubmitted update commits.
        retried = db.submit_update("ag", write_body("x", 8), writes=["x"])
        db.run(until=db.sim.now + 20)
        assert retried.status is RequestStatus.COMMITTED
        assert db.nodes[new_home].store.read("x") == 8

        # The recovered ex-home rejoins under the new epoch.
        db.recover_node("A")
        db.quiesce()
        assert db.nodes["A"].store.read("x") == 8
        assert db.mutual_consistency().consistent
        report = audit_events(event.as_dict() for event in db.tracer)
        assert report.ok, report.violations
        assert report.epoch_cuts == 1

    def test_stranded_suffix_discarded_at_demotion(self):
        """Failover x recovery interleaving: updates the dead home
        committed but never propagated are declared lost by the epoch
        cut and discarded when the ex-home recovers and demotes."""
        db = make_db(availability=AvailabilityConfig(**FAST))
        db.availability.start(until=400.0)
        db.submit_update("ag", write_body("x", 1), writes=["x"])
        db.run(until=15.0)

        # Isolate the home, commit a suffix only it has, then crash it
        # before the partition heals — the multicasts die with it.
        db.partitions.partition_now([["A"], ["B", "C", "D", "E"]])
        stranded = [
            db.submit_update("ag", write_body("x", 666), writes=["x"]),
            db.submit_update("ag", write_body("x", 667), writes=["x"]),
        ]
        db.run(until=db.sim.now + 3)
        assert all(t.status is RequestStatus.COMMITTED for t in stranded)
        db.fail_node("A")
        db.partitions.heal_now()

        db.run(until=db.sim.now + 60)
        assert db.metrics.value("avail.failovers") == 1
        new_home = db.agents["ag"].home_node
        assert new_home in {"B", "C"}

        # Recovery re-delivers the held epoch cut: the ex-home demotes,
        # drops the stale suffix, and resyncs under the new epoch.
        db.recover_node("A")
        db.quiesce()
        assert db.metrics.value("avail.demotions") == 1
        assert db.metrics.value("avail.updates_discarded") >= 2
        for node in db.nodes.values():
            if node.store.exists("x"):
                assert node.store.read("x") == 1
        assert db.mutual_consistency().consistent
        report = audit_events(event.as_dict() for event in db.tracer)
        assert report.ok, report.violations
        assert report.epoch_cuts == 1

    def test_a_live_suspected_home_loses_no_committed_write(self):
        """A home that is up but cut off is suspected and failed over;
        the token waits at the successor until the write the home
        committed before the cut arrives, so the cut discards nothing."""
        db = make_db(availability=AvailabilityConfig(**FAST))
        db.availability.start(until=400.0)
        db.run(until=10.0)
        db.partitions.partition_now([["A"], ["B", "C", "D", "E"]])
        kept = db.submit_update("ag", write_body("x", 666), writes=["x"])
        while not trace_of(db, "avail.failover.begin"):
            db.run(until=db.sim.now + 1)
        # Past the poll round trip and the takeover delay: without the
        # wait the cut would be made now, one write short.
        db.run(until=db.sim.now + 2 + FAST["takeover_delay"] + 2)
        assert kept.status is RequestStatus.COMMITTED
        assert trace_of(db, "avail.failover.done") == []
        db.partitions.heal_now()
        db.run(until=db.sim.now + 20)
        assert db.metrics.value("avail.failovers") == 1
        assert db.metrics.value("avail.updates_discarded") == 0
        assert db.recorder.orphaned == {}
        new_home = db.agents["ag"].home_node
        assert new_home in {"B", "C"}
        assert db.nodes[new_home].store.read("x") == 666
        db.quiesce()
        assert db.mutual_consistency().consistent
        report = audit_events(event.as_dict() for event in db.tracer)
        assert report.ok, report.violations

    def test_k2_fragment_never_fails_over(self):
        """With k=2 the surviving replica cannot prove a majority; the
        failover aborts and the probe interval backs off."""
        db = make_db(
            availability=AvailabilityConfig(**FAST), replicas=("A", "B")
        )
        db.availability.start(until=80.0)
        db.submit_update("ag", write_body("x", 7), writes=["x"])
        db.run(until=10.0)
        db.fail_node("A")
        db.run(until=90.0)
        assert db.metrics.value("avail.failovers") == 0
        assert db.metrics.value("avail.failovers_aborted") >= 1
        assert db.agents["ag"].home_node == "A"
        watch = db.availability._watch["ag"]
        assert watch.interval > db.availability.config.heartbeat_interval


def trace_of(db, kind):
    return [event for event in db.tracer if event.type == kind]


class TestDemotionIsRecovery:
    """A demoted ex-home recovers its one fragment through catch-up.

    With checkpoints armed, the isolated home checkpoints *inside* the
    suffix it commits alone, so the cut finds that checkpoint tainted:
    it folds discarded writes in, and the WAL behind it is gone.
    """

    def isolate_commit_and_crash(self, db, values=(666, 667, 668)):
        db.availability.start(until=600.0)
        db.submit_update("ag", write_body("x", 1), writes=["x"])
        db.run(until=15.0)
        db.partitions.partition_now([["A"], ["B", "C", "D", "E"]])
        for value in values:
            db.submit_update("ag", write_body("x", value), writes=["x"])
        db.run(until=db.sim.now + 3)
        ckpt = db.nodes["A"].checkpoints.get("F")
        assert ckpt is not None and ckpt.upto > 1  # covers the suffix
        db.fail_node("A")
        db.partitions.heal_now()
        db.run(until=db.sim.now + 60)

    def assert_ex_home_matches(self, db, home):
        ex_home, successor = db.nodes["A"], db.nodes[home]
        assert ex_home.store.snapshot(["x", "y"]) == successor.store.snapshot(
            ["x", "y"]
        )
        assert db.mutual_consistency().consistent
        report = audit_events(event.as_dict() for event in db.tracer)
        assert report.ok, report.violations

    def test_tainted_demotion_at_the_cut_start_is_snapshot_seeded(self):
        db = make_db(
            availability=AvailabilityConfig(**FAST),
            recovery=RecoveryConfig(checkpoint_every=3),
        )
        self.isolate_commit_and_crash(db)
        home = db.agents["ag"].home_node
        db.recover_node("A")
        db.quiesce()
        assert db.metrics.value("avail.demotions") == 1
        self.assert_ex_home_matches(db, home)
        # The rejoin's request went out before the held cut landed; the
        # demotion then asked the successor from the rewound cursor,
        # exactly the cut start, where nothing is behind yet the dropped
        # checkpoint's objects are missing.
        *_, demotion = [
            event.fields
            for event in trace_of(db, "recovery.catchup.request")
            if event.fields["node"] == "A"
        ]
        assert demotion["donor"] == home
        assert demotion["cursors"] == {"F": 1}

    def test_tainted_demotion_behind_the_cut_receives_a_checkpoint(self):
        """Two failovers: the ex-home rewinds to the first cut's start
        and is still behind the second when it asks to catch up."""
        db = make_db(
            availability=AvailabilityConfig(**FAST),
            recovery=RecoveryConfig(checkpoint_every=3),
            replicas=("A", "B", "C", "D", "E"),
        )
        self.isolate_commit_and_crash(db)
        first = db.agents["ag"].home_node
        db.submit_update("ag", write_body("x", 2), writes=["x"])
        db.run(until=db.sim.now + 10)
        db.fail_node(first)
        db.run(until=db.sim.now + 80)
        assert db.metrics.value("avail.failovers") == 2
        second = db.agents["ag"].home_node
        db.recover_node("A")
        db.quiesce()
        assert db.metrics.value("avail.demotions") == 1
        assert db.metrics.value("recovery.checkpoints_shipped") >= 1
        assert db.nodes["A"].store.read("x") == 2
        self.assert_ex_home_matches(db, second)


class TestSuccessionPoll:
    """The poll elects the instant its outcome is decided, and only then.

    Exact simulator times: every link has latency 1, so one poll round
    trip (coordinator -> replica -> coordinator) takes 2 ticks.
    """

    def fail_home(self, db, *also_down):
        db.availability.start(until=200.0)
        db.run(until=10.0)
        for name in also_down:
            db.fail_node(name)
        db.fail_node("A")
        db.run(until=100.0)
        return trace_of(db, "avail.suspect")[0].time

    def test_the_last_vote_elects_without_waiting_for_the_timeout(self):
        db = make_db(availability=AvailabilityConfig(**FAST))
        suspected = self.fail_home(db)
        [done] = trace_of(db, "avail.failover.done")
        assert done.time == suspected + 2.0 + FAST["takeover_delay"]
        assert done.fields["successor"] in {"B", "C"}

    def test_a_missing_vote_waits_out_the_timeout_then_elects(self):
        """Five replicas, E down as well: B, C and D are a majority of
        five, but E might still answer until the deadline."""
        db = make_db(
            availability=AvailabilityConfig(**FAST),
            replicas=("A", "B", "C", "D", "E"),
        )
        suspected = self.fail_home(db, "E")
        [done] = trace_of(db, "avail.failover.done")
        assert done.time == (
            suspected + FAST["succession_timeout"] + FAST["takeover_delay"]
        )
        assert done.fields["successor"] in {"B", "C", "D"}
        assert db.metrics.value("avail.failovers_aborted") == 0

    def test_votes_that_cannot_make_a_majority_abort_at_the_timeout(self):
        """k=2: the coordinator is the only replica polled and votes at
        once, but one vote of two is no majority — only the deadline
        decides that."""
        db = make_db(
            availability=AvailabilityConfig(**FAST), replicas=("A", "B")
        )
        suspected = self.fail_home(db)
        abort = trace_of(db, "avail.failover.abort")[0]
        assert abort.time == suspected + FAST["succession_timeout"]
        assert abort.fields["reason"].startswith("no majority")
        assert trace_of(db, "avail.failover.done") == []


class TestRefusalWakes:
    def test_a_wake_fires_when_its_own_refusal_ends(self):
        """A token landing ends the refusals of its own fragment only;
        a waiter on a dead home stays queued until that home rejoins."""
        db = FragmentedDatabase(
            ["A", "B", "C"],
            movement=InstantMoveProtocol(),
            availability=AvailabilityConfig(**FAST),
        )
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.add_agent("bg", home_node="B")
        db.add_fragment("G", agent="bg", objects=["y"])
        db.load({"x": 0, "y": 0})
        db.finalize()
        woken = []

        def refuse_and_wait(agent, obj, fragment):
            def on_done(tracker):
                assert tracker.cause is not None  # refused at the gate
                db.on_refusal_end(fragment, lambda: woken.append(fragment))

            db.submit_update(
                agent, write_body(obj, 1), writes=[obj], on_done=on_done
            )

        db.fail_node("A")
        refuse_and_wait("ag", "x", "F")
        db.move_agent("bg", "C", transport_delay=5.0)
        refuse_and_wait("bg", "y", "G")
        db.run(until=db.sim.now + 10)
        assert woken == ["G"]  # bg landed; ag's home is still down
        db.recover_node("A")
        assert woken == ["G", "F"]


class TestQuorumReadRetry:
    def _read(self, db, at):
        from repro import scripted_body

        observed = []
        tracker = db.submit_readonly(
            "ag", scripted_body([("r", "x")], collect=observed), at=at,
            reads=["x"],
        )
        return tracker, observed

    def test_retry_resizes_quorum_after_reconfiguration(self):
        """Two of three replicas crash mid-read; removing them from the
        replica set lets the retry pass resolve with the survivor."""
        db = make_db(quorum=QuorumConfig(timeout=20.0))
        db.submit_update("ag", write_body("x", 7), writes=["x"])
        db.quiesce()
        db.fail_node("B")
        db.fail_node("C")
        tracker, observed = self._read(db, at="D")
        db.run(until=db.sim.now + 5)  # A's vote arrives; quorum still 2
        db.remove_replica("F", "B")
        db.remove_replica("F", "C")
        db.run(until=db.sim.now + 60)
        assert tracker.succeeded
        assert observed == [("x", 7)]
        assert db.metrics.value("quorum.retries") == 1
        assert db.metrics.value("quorum.timeouts") == 0

    def test_retry_exhausts_into_loud_timeout(self):
        """Without a reconfiguration the retry changes nothing: one
        extra timeout period, then the read fails loudly as before."""
        db = make_db(quorum=QuorumConfig(timeout=20.0))
        db.submit_update("ag", write_body("x", 7), writes=["x"])
        db.quiesce()
        db.fail_node("B")
        db.fail_node("C")
        tracker, observed = self._read(db, at="D")
        db.run(until=db.sim.now + 70)
        assert tracker.status is RequestStatus.TIMED_OUT
        assert "quorum" in tracker.reason
        assert observed == []
        assert db.metrics.value("quorum.retries") == 1
        assert db.metrics.value("quorum.timeouts") == 1


class TestReconfiguration:
    def test_add_replica_syncs_joiner_online(self):
        db = make_db()
        db.submit_update("ag", write_body("x", 7), writes=["x"])
        db.quiesce()
        db.add_replica("F", "D")
        db.quiesce()
        assert db.metrics.value("avail.joiners_synced") == 1
        assert db.replication_epoch["F"] == 1
        assert "F" not in db.syncing_replicas
        assert db.replica_set("F") == ("A", "B", "C", "D")
        # The joiner came across with history it never streamed...
        assert db.nodes["D"].store.read("x") == 7
        # ...and follows the fragment's new-epoch stream from now on.
        assert db.propagation_plan("F") == (("A", "B", "C", "D"), "f:F@e1")
        db.submit_update("ag", write_body("x", 9), writes=["x"])
        db.quiesce()
        assert db.nodes["D"].store.read("x") == 9
        assert db.mutual_consistency().consistent

    def test_join_from_a_busy_donor_without_checkpoint_is_snapshot_seeded(
        self,
    ):
        """The donor checkpoints on demand, and answers once its apply
        queue has drained — ``y`` was never streamed, so only a
        snapshot can bring it to the joiner."""
        db = FragmentedDatabase(["A", "B", "C", "D"], action_delay=1.0)
        db.add_agent("ag", home_node="C")
        db.add_fragment("F", agent="ag", objects=["x", "y"])
        db.set_replication("F", ["A", "B", "C"])
        db.load({"x": 0, "y": 0})
        db.finalize()
        deferred = []
        checkpoint_now = db.recovery.checkpoint_now

        def spy(node, fragment, gossip=True):
            ckpt = checkpoint_now(node, fragment, gossip=gossip)
            deferred.append(ckpt is None)
            return ckpt

        db.recovery.checkpoint_now = spy
        for value in range(1, 6):
            db.submit_update("ag", write_body("x", value), writes=["x"])
        db.run(until=2.5)  # all five have reached A; one installs per tick
        assert db.nodes["A"].apply_queue.depth("F") > 0
        assert db.nodes["A"].checkpoints.get("F") is None
        db.add_replica("F", "D")
        db.quiesce()
        assert deferred[0] and deferred[-1] is False
        assert db.metrics.value("recovery.checkpoints_shipped") == 1
        assert db.nodes["D"].store.snapshot() == {"x": 5, "y": 0}
        assert "F" not in db.syncing_replicas
        assert db.mutual_consistency().consistent

    def test_syncing_joiner_does_not_count(self):
        """Until catch-up completes a joiner is excluded from quorum
        denominators — it can't vouch for the present."""
        db = make_db()
        db.quiesce()
        db.add_replica("F", "D")
        # Before any simulation runs, the joiner is still syncing.
        assert db.syncing_replicas["F"] == {"D"}
        assert db.countable_replicas("F") == ("A", "B", "C")
        db.quiesce()
        assert db.countable_replicas("F") == ("A", "B", "C", "D")

    def test_remove_replica_purges_leaver(self):
        db = make_db()
        db.submit_update("ag", write_body("x", 7), writes=["x"])
        db.quiesce()
        db.remove_replica("F", "C")
        assert db.replica_set("F") == ("A", "B")
        assert db.replication_epoch["F"] == 1
        # The leaver's frozen copy is gone everywhere it could hide.
        leaver = db.nodes["C"]
        assert not leaver.store.exists("x")
        assert "F" not in leaver.streams.archive
        assert leaver.checkpoints.get("F") is None
        # Later updates no longer reach it.
        db.submit_update("ag", write_body("x", 8), writes=["x"])
        db.quiesce()
        assert not leaver.store.exists("x")
        assert db.nodes["B"].store.read("x") == 8
        assert db.mutual_consistency().consistent

    def test_reconfiguration_guards(self):
        db = make_db()
        db.quiesce()
        with pytest.raises(DesignError):
            db.remove_replica("F", "A")  # the agent's home may not leave
        with pytest.raises(DesignError):
            db.add_replica("F", "B")  # already a replica
        with pytest.raises(DesignError):
            db.add_replica("F", "Z")  # unknown node
        db.fail_node("E")
        with pytest.raises(DesignError):
            db.add_replica("F", "E")  # crashed joiner

    def test_fully_replicated_fragment_is_static(self):
        db = FragmentedDatabase(["A", "B", "C"])
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.load({"x": 0})
        db.finalize()
        with pytest.raises(DesignError):
            db.add_replica("F", "C")
        with pytest.raises(DesignError):
            db.remove_replica("F", "B")
