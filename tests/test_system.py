"""End-to-end tests of the fragments-and-agents system."""

import pytest

from repro import (
    FragmentedDatabase,
    InitiationError,
    RequestStatus,
    Topology,
    scripted_body,
)
from repro.cc import Read, Write
from repro.errors import DesignError


def simple_db(nodes=("A", "B"), **kwargs):
    db = FragmentedDatabase(list(nodes), **kwargs)
    db.add_agent("ag", home_node=nodes[0])
    db.add_fragment("F", agent="ag", objects=["x", "y"])
    db.load({"x": 0, "y": 0})
    db.finalize()
    return db


def write_body(obj, value):
    def body(_ctx):
        yield Write(obj, value)

    return body


class TestBasicFlow:
    def test_update_propagates_to_all_replicas(self):
        db = simple_db(("A", "B", "C"))
        tracker = db.submit_update("ag", write_body("x", 7), writes=["x"])
        db.quiesce()
        assert tracker.succeeded
        for node in db.nodes.values():
            assert node.store.read("x") == 7

    def test_latency_respected(self):
        db = simple_db(("A", "B"))
        db.submit_update("ag", write_body("x", 7), writes=["x"])
        db.run(until=0.5)
        assert db.nodes["A"].store.read("x") == 7  # origin immediate
        assert db.nodes["B"].store.read("x") == 0  # still in flight
        db.quiesce()
        assert db.nodes["B"].store.read("x") == 7

    def test_read_only_transaction(self):
        db = simple_db()
        db.submit_update("ag", write_body("x", 5), writes=["x"])
        db.quiesce()
        results = []
        tracker = db.submit_readonly(
            "ag",
            scripted_body([("r", "x")], collect=results),
            at="B",
            reads=["x"],
        )
        db.quiesce()
        assert tracker.succeeded
        assert results == [("x", 5)]

    def test_result_and_latency_on_tracker(self):
        db = simple_db()

        def body(_ctx):
            yield Write("x", 1)
            return "the-result"

        tracker = db.submit_update("ag", body, writes=["x"])
        db.quiesce()
        assert tracker.result == "the-result"
        assert tracker.latency == 0.0

    def test_trackers_collected(self):
        db = simple_db()
        db.submit_update("ag", write_body("x", 1), writes=["x"])
        db.submit_update("ag", write_body("y", 2), writes=["y"])
        db.quiesce()
        stats = db.availability_stats()
        assert stats.submitted == 2
        assert stats.committed == 2
        assert stats.availability == 1.0


class TestInitiationRequirement:
    def test_write_outside_fragment_aborts(self):
        db = FragmentedDatabase(["A", "B"])
        db.add_agent("ag1", home_node="A")
        db.add_agent("ag2", home_node="B")
        db.add_fragment("F1", agent="ag1", objects=["x"])
        db.add_fragment("F2", agent="ag2", objects=["z"])
        db.load({"x": 0, "z": 0})
        db.finalize()
        # Declared writes say F1, but the body writes z (F2).
        tracker = db.submit_update("ag1", write_body("z", 1), writes=["x"])
        db.quiesce()
        assert tracker.status is RequestStatus.ABORTED
        assert "initiation requirement" in tracker.reason
        assert db.nodes["A"].store.read("z") == 0

    def test_multi_fragment_write_declaration_rejected(self):
        db = FragmentedDatabase(["A"])
        db.add_agent("ag", home_node="A")
        db.add_fragment("F1", agent="ag", objects=["x"])
        db.add_fragment("F2", agent="ag", objects=["z"])
        db.load({"x": 0, "z": 0})
        with pytest.raises(InitiationError):
            db.submit_update("ag", write_body("x", 1), writes=["x", "z"])

    def test_agent_without_fragment_control_rejected(self):
        db = FragmentedDatabase(["A", "B"])
        db.add_agent("owner", home_node="A")
        db.add_agent("intruder", home_node="B")
        db.add_fragment("F", agent="owner", objects=["x"])
        db.load({"x": 0})
        with pytest.raises(InitiationError):
            db.submit_update("intruder", write_body("x", 1), writes=["x"])

    def test_ambiguous_fragment_needs_declared_writes(self):
        db = FragmentedDatabase(["A"])
        db.add_agent("ag", home_node="A")
        db.add_fragment("F1", agent="ag", objects=["x"])
        db.add_fragment("F2", agent="ag", objects=["z"])
        db.load({"x": 0, "z": 0})
        with pytest.raises(InitiationError):
            db.submit_update("ag", write_body("x", 1))  # no writes declared

    def test_token_in_transit_rejects(self):
        from repro.core.movement import InstantMoveProtocol

        db = FragmentedDatabase(
            ["A", "B"], movement=InstantMoveProtocol()
        )
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.load({"x": 0})
        db.finalize()
        db.move_agent("ag", "B", transport_delay=10.0)
        tracker = db.submit_update("ag", write_body("x", 1), writes=["x"])
        db.quiesce()
        assert tracker.status is RequestStatus.REJECTED
        assert "transit" in tracker.reason


class TestPartitionBehaviour:
    def test_updates_during_partition_reach_everyone_after_heal(self):
        db = simple_db(("A", "B", "C"))
        db.partitions.partition_now([["A"], ["B", "C"]])
        tracker = db.submit_update("ag", write_body("x", 42), writes=["x"])
        db.run(until=10)
        assert tracker.succeeded  # the agent's node stays available
        assert db.nodes["B"].store.read("x") == 0
        db.partitions.heal_now()
        db.quiesce()
        assert db.mutual_consistency().consistent
        assert db.nodes["C"].store.read("x") == 42

    def test_fifo_install_order_across_heal(self):
        db = simple_db(("A", "B"))
        db.partitions.partition_now([["A"], ["B"]])
        for value in (1, 2, 3):
            db.submit_update("ag", write_body("x", value), writes=["x"])
        db.run(until=10)
        db.partitions.heal_now()
        db.quiesce()
        assert db.nodes["B"].store.read("x") == 3
        seqs = [
            r.stream_seq
            for r in db.recorder.installs_at("B")
            if r.fragment == "F"
        ]
        assert seqs == sorted(seqs)

    def test_convergence_time_bounded_by_latency(self):
        db = simple_db(("A", "B"))
        db.partitions.partition_now([["A"], ["B"]])
        db.submit_update("ag", write_body("x", 9), writes=["x"])
        db.run(until=100)
        db.partitions.heal_now()
        heal_time = db.sim.now
        db.quiesce()
        # One update, one hop: convergence within a couple of latencies.
        assert db.sim.now <= heal_time + 5


class TestValidation:
    def test_unknown_agent(self):
        db = simple_db()
        with pytest.raises(DesignError):
            db.submit_update("ghost", write_body("x", 1), writes=["x"])

    def test_unknown_node_for_agent(self):
        db = FragmentedDatabase(["A"])
        with pytest.raises(DesignError):
            db.add_agent("ag", home_node="Z")

    def test_duplicate_agent(self):
        db = FragmentedDatabase(["A"])
        db.add_agent("ag", home_node="A")
        with pytest.raises(DesignError):
            db.add_agent("ag", home_node="A")

    def test_fragment_requires_known_agent(self):
        db = FragmentedDatabase(["A"])
        with pytest.raises(DesignError):
            db.add_fragment("F", agent="ghost", objects=["x"])

    def test_load_rejects_unassigned_objects(self):
        db = FragmentedDatabase(["A"])
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        with pytest.raises(DesignError):
            db.load({"x": 0, "unassigned": 1})

    def test_install_hook_requires_known_fragment(self):
        db = simple_db()
        with pytest.raises(DesignError):
            db.on_install("NOPE", lambda node, quasi: None)

    def test_at_least_one_node(self):
        with pytest.raises(DesignError):
            FragmentedDatabase([])


class TestHooks:
    def test_install_hook_fires_everywhere(self):
        db = simple_db(("A", "B", "C"))
        fired = []
        db.on_install("F", lambda node, quasi: fired.append(node.name))
        db.submit_update("ag", write_body("x", 1), writes=["x"])
        db.quiesce()
        assert sorted(fired) == ["A", "B", "C"]

    def test_hook_receives_quasi_transaction(self):
        db = simple_db()
        quasis = []
        db.on_install("F", lambda node, quasi: quasis.append(quasi))
        db.submit_update("ag", write_body("x", 5), writes=["x"], txn_id="TX")
        db.quiesce()
        assert all(q.source_txn == "TX" for q in quasis)
        assert all(q.objects == ["x"] for q in quasis)


class TestHistoryRecording:
    def test_commit_records_written(self):
        db = simple_db()
        db.submit_update("ag", write_body("x", 5), writes=["x"], txn_id="T1")
        db.quiesce()
        record = db.recorder.transaction("T1")
        assert record.fragment == "F"
        assert record.stream_seq == 0
        assert [w.obj for w in record.writes] == ["x"]

    def test_updates_of_fragment_in_stream_order(self):
        db = simple_db()
        for value in (1, 2, 3):
            db.submit_update("ag", write_body("x", value), writes=["x"])
        db.quiesce()
        updates = db.recorder.updates_of_fragment("F")
        assert [u.stream_seq for u in updates] == [0, 1, 2]

    def test_version_order_per_object(self):
        db = simple_db()
        for value in (1, 2):
            db.submit_update("ag", write_body("x", value), writes=["x"])
        db.quiesce()
        order = db.recorder.version_order()
        assert [vno for vno, _txn in order["x"]] == [1, 2]


class TestCustomTopology:
    def test_line_topology_propagates_through_middle(self):
        topo = Topology.line(["A", "B", "C"], latency=1.0)
        db = FragmentedDatabase(["A", "B", "C"], topology=topo)
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.load({"x": 0})
        db.finalize()
        db.submit_update("ag", write_body("x", 1), writes=["x"])
        db.quiesce()
        assert db.nodes["C"].store.read("x") == 1

    def test_middle_node_failure_heals(self):
        topo = Topology.line(["A", "B", "C"], latency=1.0)
        db = FragmentedDatabase(["A", "B", "C"], topology=topo)
        db.add_agent("ag", home_node="A")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.load({"x": 0})
        db.finalize()
        outage = [(topo.link("B", "C"), "outage")]
        db.network.change_links(hold=outage)
        db.submit_update("ag", write_body("x", 1), writes=["x"])
        db.run(until=20)
        assert db.nodes["C"].store.read("x") == 0
        db.network.change_links(release=outage)
        db.quiesce()
        assert db.nodes["C"].store.read("x") == 1
