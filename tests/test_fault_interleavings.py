"""Regression tests for partition/crash interleaving bugs.

Each scenario interleaves node crashes with partition episodes in a way
the seed implementation got wrong:

* ``heal_now``/scripted heals restored *every* link — including links
  cut by a different still-active episode and links taken down by a
  node crash.
* ``recover_node`` replayed the pre-crash link-state snapshot — links a
  partition severed *while the node was down* came back up mid-episode.

The fixed behaviour: a link is down while anyone holds it down — a
crashed endpoint, each active partition episode and each open flap
window is one holder, a heal or a recovery releases only its own, and
the link carries traffic again when the last holder lets go.
"""

from repro import FragmentedDatabase, PartitionSpec
from repro.cc.ops import Read, Write


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


def up(db, a, b):
    return db.topology.link(a, b).up


class TestCrashDuringPartition:
    def test_heal_keeps_crashed_node_links_down(self):
        """A heal must not resurrect links owned by a crashed node."""
        db = make_db()
        db.fail_node("C")
        db.partitions.partition_now([["A"], ["B", "C"]])
        db.partitions.heal_now()
        assert up(db, "A", "B")  # partition-cut, restored
        assert not up(db, "A", "C")  # crash-downed, heal must not touch
        assert not up(db, "B", "C")
        db.recover_node("C")
        assert up(db, "A", "C")
        assert up(db, "B", "C")

    def test_crash_after_cut_then_heal_then_recover(self):
        """Partition owns a link, the endpoint crashes, heal happens
        during the downtime: the link stays down until recovery."""
        db = make_db()
        db.partitions.partition_now([["A"], ["B", "C"]])
        db.fail_node("C")
        db.partitions.heal_now()
        assert up(db, "A", "B")
        assert not up(db, "A", "C")  # endpoint still crashed
        assert not up(db, "B", "C")
        db.recover_node("C")
        db.quiesce()
        assert up(db, "A", "C")
        assert up(db, "B", "C")

    def test_traffic_converges_after_crash_partition_heal_recover(self):
        db = make_db()
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        db.fail_node("C")
        db.partitions.partition_now([["A"], ["B", "C"]])
        db.submit_update("ag", bump(), writes=["x"])
        db.run(until=db.sim.now + 5)
        db.partitions.heal_now()
        db.run(until=db.sim.now + 5)
        # C is still down: nothing may have been delivered to it.
        assert not db.nodes["C"].store.exists("x")
        db.recover_node("C")
        db.quiesce()
        assert db.nodes["C"].store.read("x") == 2
        assert db.mutual_consistency().consistent


class TestOverlappingEpisodes:
    def test_first_heal_keeps_shared_links_down(self):
        """Two overlapping episodes share the A-C link; the first heal
        must only restore links no active episode still claims."""
        db = make_db()
        db.partitions.install(
            [
                PartitionSpec(10.0, 50.0, [["A"], ["B", "C"]], label="p1"),
                PartitionSpec(30.0, 80.0, [["A", "B"], ["C"]], label="p2"),
            ]
        )
        db.run(until=60.0)  # p1 healed, p2 still active
        assert up(db, "A", "B")  # only p1 claimed it
        assert not up(db, "A", "C")  # p2 still claims it
        assert not up(db, "B", "C")  # cut by p2, untouched by p1's heal
        db.run(until=90.0)  # p2 healed too
        assert up(db, "A", "C")
        assert up(db, "B", "C")

    def test_heal_now_clears_all_active_episodes(self):
        db = make_db()
        db.partitions.partition_now([["A"], ["B", "C"]])
        db.partitions.partition_now([["A", "B"], ["C"]])
        db.partitions.heal_now()
        for a, b in (("A", "B"), ("A", "C"), ("B", "C")):
            assert up(db, a, b)

    def test_messages_held_until_last_claim_released(self):
        db = make_db()
        db.partitions.install(
            [
                PartitionSpec(1.0, 10.0, [["A"], ["B", "C"]], label="p1"),
                PartitionSpec(5.0, 20.0, [["A", "B"], ["C"]], label="p2"),
            ]
        )
        db.sim.schedule_at(
            6.0,
            lambda: db.submit_update("ag", bump(), writes=["x"]),
            label="update mid-overlap",
        )
        db.run(until=12.0)  # p1 healed; A-C still severed by p2
        assert db.nodes["C"].store.read("x") == 0
        db.quiesce()
        assert db.nodes["C"].store.read("x") == 1
        assert db.mutual_consistency().consistent


class TestRecoverDuringPartition:
    def test_recovery_respects_active_partition(self):
        """A partition formed while the node was down keeps its links
        severed after recovery (no stale pre-crash snapshot replay)."""
        db = make_db()
        db.fail_node("C")
        db.partitions.partition_now([["A", "B"], ["C"]])
        db.recover_node("C")
        assert not db.nodes["C"].down
        assert up(db, "A", "B")
        assert not up(db, "A", "C")  # still severed by the episode
        assert not up(db, "B", "C")
        db.partitions.heal_now()
        assert up(db, "A", "C")  # the episode was their last holder
        assert up(db, "B", "C")

    def test_recovered_node_isolated_until_heal(self):
        db = make_db()
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        db.fail_node("C")
        db.partitions.partition_now([["A", "B"], ["C"]])
        db.recover_node("C")
        db.submit_update("ag", bump(), writes=["x"])
        db.run(until=db.sim.now + 10)
        # The update committed on the majority side but must not have
        # crossed into C's group while the episode is active (C's WAL
        # replay restored only the pre-crash value).
        assert db.nodes["A"].store.read("x") == 2
        assert db.nodes["C"].store.read("x") == 1
        db.partitions.heal_now()
        db.quiesce()
        assert db.nodes["C"].store.read("x") == 2
        assert db.mutual_consistency().consistent

    def test_scripted_heal_restores_adopted_links(self):
        db = make_db()
        db.partitions.install(
            [PartitionSpec(5.0, 30.0, [["A", "B"], ["C"]], label="p")]
        )
        db.sim.schedule_at(2.0, lambda: db.fail_node("C"), label="crash C")
        db.sim.schedule_at(10.0, lambda: db.recover_node("C"), label="recover C")
        db.run(until=20.0)
        assert not up(db, "A", "C")
        assert not up(db, "B", "C")
        db.run(until=40.0)  # scripted heal at 30 releases the last holder
        assert up(db, "A", "C")
        assert up(db, "B", "C")
        db.quiesce()
        assert db.mutual_consistency().consistent


class TestAdoptAndHealWithCrashHeldLinks:
    """Links simultaneously held down by crashes, partitions, and (via
    the fault injector) link flaps: no holder releases another's hold.
    (Test names keep the word "adopt" so the suite's ids stay stable.)"""

    def test_adopt_requires_an_active_claim(self):
        db = make_db()
        orphan = [(db.topology.link("A", "B"), "someone else")]
        db.network.change_links(hold=orphan)
        assert db.partitions.heal_now() == 0
        assert not up(db, "A", "B")  # heal never touched the orphan link
        db.network.change_links(release=orphan)
        assert up(db, "A", "B")

    def test_adopt_transfers_restore_duty_to_heal(self):
        db = make_db()
        db.fail_node("C")
        db.partitions.partition_now([["A", "B"], ["C"]])
        db.recover_node("C")
        # Recovery released the crash's holds only: the episode still
        # holds A-C/B-C, and its heal brings them up and counts them.
        assert not up(db, "A", "C")
        assert not up(db, "B", "C")
        assert db.partitions.heal_now() == 2
        assert up(db, "A", "C")
        assert up(db, "B", "C")

    def test_heal_now_skips_links_guarded_by_a_crash(self):
        db = make_db(nodes=("A", "B", "C", "D"))
        db.partitions.partition_now([["A", "B"], ["C", "D"]])
        db.fail_node("D")
        db.partitions.heal_now()
        # Partition-cut links with both endpoints alive come back; every
        # link touching the crashed node stays down even though the
        # partition owned some of them.
        assert up(db, "A", "C")
        assert up(db, "B", "C")
        for other in ("A", "B", "C"):
            assert not up(db, other, "D")
        db.recover_node("D")
        for other in ("A", "B", "C"):
            assert up(db, other, "D")

    def test_flap_up_during_partition_is_adopted_not_revived(self):
        """A link flap ending mid-partition must not punch a hole in the
        partition: the episode still holds the link, and the eventual
        heal restores it."""
        from repro.net.faults import FaultPlan, LinkFlap

        db = make_db(
            faults=FaultPlan(flaps=(LinkFlap(5.0, "A", "C", 10.0),))
        )
        db.sim.schedule_at(
            8.0, lambda: db.partitions.partition_now([["A", "B"], ["C"]])
        )
        db.run(until=20.0)  # flap tried to come back up at 15
        assert not up(db, "A", "C")  # partition still severs it
        assert db.partitions.heal_now() == 2  # A-C among them
        assert up(db, "A", "C")
        db.quiesce()
        assert db.mutual_consistency().consistent

    def test_flap_up_during_crash_waits_for_recovery(self):
        from repro.net.faults import FaultPlan, LinkFlap

        db = make_db(
            faults=FaultPlan(flaps=(LinkFlap(5.0, "A", "C", 10.0),))
        )
        db.sim.schedule_at(8.0, lambda: db.fail_node("C"))
        db.run(until=20.0)
        assert not up(db, "A", "C")  # the crash outlasts the flap window
        db.recover_node("C")
        assert up(db, "A", "C")
        db.quiesce()
        assert db.mutual_consistency().consistent

    def test_traffic_survives_adopted_flap_plus_crash(self):
        from repro.net.faults import FaultPlan, LinkFlap

        db = make_db(
            faults=FaultPlan(
                loss_rate=0.2,
                flaps=(LinkFlap(3.0, "B", "C", 8.0),),
            )
        )
        db.sim.schedule_at(
            5.0, lambda: db.partitions.partition_now([["A", "B"], ["C"]])
        )
        db.sim.schedule_at(6.0, lambda: db.submit_update("ag", bump(), writes=["x"]))
        db.sim.schedule_at(25.0, db.partitions.heal_now)
        db.quiesce()
        assert db.nodes["C"].store.read("x") == 1
        assert db.mutual_consistency().consistent


class TestHoldersCompose:
    """Crash, episode and flap holders overlapping in the orders that
    per-source arbitration (claim counts, ownership transfer, a revive
    veto) got wrong, and the rejoin ordering.  Each asserts ``link.up``
    over time and convergence once every holder has let go."""

    @staticmethod
    def up_at(db, a, b, times):
        seen = []
        for at in times:
            db.run(until=at)
            seen.append(up(db, a, b))
        return seen

    def test_recovery_inside_a_flap_window_does_not_revive_the_link(self):
        from repro.net.faults import FaultPlan, LinkFlap

        db = make_db(faults=FaultPlan(flaps=(LinkFlap(5.0, "A", "C", 10.0),)))
        db.sim.schedule_at(8.0, lambda: db.fail_node("C"))
        db.sim.schedule_at(9.0, lambda: db.submit_update("ag", bump(), writes=["x"]))
        db.sim.schedule_at(12.0, lambda: db.recover_node("C"))
        # 13: C is back but the flap window (5..15) is still open.
        assert self.up_at(db, "A", "C", [4, 6, 9, 13, 16]) == [
            True, False, False, False, True,
        ]
        assert up(db, "B", "C")
        db.quiesce()
        assert db.network.held_count() == 0
        assert db.nodes["C"].store.read("x") == 1
        assert db.mutual_consistency().consistent

    def test_flap_under_a_partition_that_heals_first_lasts_its_window(self):
        from repro.net.faults import FaultPlan, LinkFlap

        db = make_db(
            faults=FaultPlan(
                flaps=(LinkFlap(5.0, "A", "C", 10.0),),
                partitions=(PartitionSpec(3.0, 9.0, [["A", "B"], ["C"]]),),
            )
        )
        db.sim.schedule_at(6.0, lambda: db.submit_update("ag", bump(), writes=["x"]))
        # 10: the partition healed at 9, the flap holds A-C until 15.
        assert self.up_at(db, "A", "C", [2, 4, 8, 10, 16]) == [
            True, False, False, False, True,
        ]
        assert db.metrics.value("fault.flaps") == 0  # never its up->down
        assert db.metrics.value("partition.links_healed") == 1  # B-C only
        db.quiesce()
        assert db.network.held_count() == 0
        assert db.nodes["C"].store.read("x") == 1
        assert db.mutual_consistency().consistent

    def test_stale_scripted_heal_leaves_a_later_partition_alone(self):
        db = make_db()
        groups = [["A", "B"], ["C"]]
        db.partitions.install([PartitionSpec(1.0, 20.0, groups, label="p")])
        db.sim.schedule_at(5.0, db.partitions.heal_now)
        db.sim.schedule_at(10.0, lambda: db.partitions.partition_now(groups))
        db.sim.schedule_at(12.0, lambda: db.submit_update("ag", bump(), writes=["x"]))
        # 25: p's scheduled heal fired at 20, five ticks after heal_now
        # ended p; the episode opened at 10 is not p's to release.
        assert self.up_at(db, "A", "C", [0.5, 3, 7, 15, 25]) == [
            True, False, True, False, False,
        ]
        assert db.nodes["C"].store.read("x") == 0
        assert db.partitions.heal_now() == 2
        assert up(db, "A", "C") and up(db, "B", "C")
        db.quiesce()
        assert db.network.held_count() == 0
        assert db.nodes["C"].store.read("x") == 1
        assert db.mutual_consistency().consistent

    def test_catchup_request_queues_behind_the_rejoiners_sender_edge(self):
        """E21's N1->N0 at t=125 in miniature: a quasi-transaction waits
        at A's sender edge when A crashes; recovered, A's catch-up
        request reaches the donor after it, not before."""
        db = make_db()
        db.enable_tracing()
        db.partitions.partition_now([["A"], ["B", "C"]])
        db.submit_update("ag", bump(), writes=["x"])
        db.run(until=5.0)
        assert db.network.held_count() == 2  # the qt, for B and for C
        db.fail_node("A")
        db.partitions.heal_now()  # the crash still holds A's links
        db.run(until=10.0)
        assert db.network.held_count() == 2
        db.recover_node("A")
        db.quiesce()
        handed_to_donor = [
            event.fields["kind"]
            for event in db.tracer.events("message.deliver")
            if (event.fields["src"], event.fields["dst"]) == ("A", "B")
        ]
        assert handed_to_donor == ["qt", "catchup-req"]
        assert db.network.held_count() == 0
        assert db.mutual_consistency().consistent


class TestBatchInstallIdempotence:
    """A held batch arriving after anti-entropy already installed some
    of its members must skip those members, not re-install them."""

    def test_held_batch_overlapping_recovered_prefix(self):
        from repro import PipelineConfig

        db = make_db(pipeline=PipelineConfig(batch_size=2, batch_window=1.0))
        for _ in range(2):  # T1,T2: one batch, installed everywhere
            db.submit_update("ag", bump(), writes=["x"])
        db.run(until=2.0)
        assert all(n.store.read("x") == 2 for n in db.nodes.values())

        db.fail_node("B")  # volatile stream state gone; WAL keeps T1,T2
        db.sim.schedule_at(3.0, lambda: db.submit_update("ag", bump(), writes=["x"]))
        db.sim.schedule_at(3.5, lambda: db.submit_update("ag", bump(), writes=["x"]))
        db.run(until=6.0)  # T3,T4 batch delivered to C, held for B
        assert db.nodes["C"].store.read("x") == 4

        # A partition forms while B is down; when B recovers, the B-C
        # link comes back but A-B stays severed (the episode holds it),
        # so the held batch stays held while anti-entropy runs via C.
        db.sim.schedule_at(7.0, lambda: db.partitions.partition_now([["A"], ["B", "C"]]))
        db.sim.schedule_at(8.0, lambda: db.recover_node("B"))
        db.run(until=15.0)
        assert db.nodes["B"].store.read("x") == 4  # T3,T4 via C's archive
        assert db.network.held_count() > 0  # the original batch, still held

        # Heal: the held {T3,T4} batch finally reaches B — every member
        # is already installed and per-qt admission must drop both.
        db.sim.schedule_at(20.0, db.partitions.heal_now)
        db.quiesce()

        assert db.nodes["B"].store.read("x") == 4
        installs = [
            r.quasi.source_txn
            for r in db.nodes["B"].wal.records()
            if r.kind == "install"
        ]
        assert len(installs) == len(set(installs))  # no double installs
        assert db.mutual_consistency().consistent

        # The stream cursor survived the duplicate batch: later updates
        # still install in order everywhere.
        db.submit_update("ag", bump(), writes=["x"])
        db.submit_update("ag", bump(), writes=["x"])
        db.quiesce()
        assert all(n.store.read("x") == 6 for n in db.nodes.values())
        assert db.mutual_consistency().consistent
