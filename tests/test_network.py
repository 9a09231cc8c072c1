"""Tests for topology, network delivery, partitions, and broadcast."""

import pytest

from repro.errors import NetworkError
from repro.net import (
    Network,
    PartitionManager,
    PartitionSpec,
    ReliableBroadcast,
    Topology,
)
from repro.sim import Simulator


def make_net(nodes=("A", "B", "C"), latency=1.0, topology=None):
    sim = Simulator()
    topo = topology or Topology.full_mesh(nodes, latency)
    return sim, topo, Network(sim, topo)


def hold(net, a, b, holder="test"):
    net.change_links(hold=[(net.topology.link(a, b), holder)])


def release(net, a, b, holder="test"):
    net.change_links(release=[(net.topology.link(a, b), holder)])


class TestTopology:
    def test_full_mesh_links(self):
        topo = Topology.full_mesh(["a", "b", "c"])
        assert len(topo.links) == 3

    def test_star_links(self):
        topo = Topology.star("hub", ["l1", "l2", "l3"])
        assert len(topo.links) == 3
        assert set(topo.neighbors("hub")) == {"l1", "l2", "l3"}

    def test_line_links(self):
        topo = Topology.line(["a", "b", "c", "d"])
        assert len(topo.links) == 3
        assert topo.neighbors("b") == ["a", "c"]

    def test_path_latency_multi_hop(self):
        topo = Topology.line(["a", "b", "c"], latency=2.0)
        assert topo.path_latency("a", "c") == 4.0
        assert topo.path_latency("a", "a") == 0.0

    def test_path_latency_prefers_cheapest(self):
        topo = Topology(["a", "b", "c"])
        topo.add_link("a", "b", 10.0)
        topo.add_link("a", "c", 1.0)
        topo.add_link("c", "b", 1.0)
        assert topo.path_latency("a", "b") == 2.0

    def test_reachability_respects_down_links(self):
        topo = Topology.line(["a", "b", "c"])
        assert topo.reachable("a", "c")
        hold(Network(Simulator(), topo), "b", "c")
        assert not topo.reachable("a", "c")
        assert topo.reachable("a", "b")

    def test_cut_and_heal(self):
        topo = Topology.full_mesh(["a", "b", "c", "d"])
        manager = PartitionManager(Network(Simulator(), topo))
        cut = manager.partition_now([{"a", "b"}, {"c", "d"}])
        assert cut == 4
        assert not topo.reachable("a", "c")
        assert topo.reachable("a", "b")
        healed = manager.heal_now()
        assert healed == 4
        assert topo.reachable("a", "c")

    def test_link_is_down_while_anyone_holds_it(self):
        topo = Topology.full_mesh(["a", "b"])
        net = Network(Simulator(), topo)
        link = topo.link("a", "b")
        with pytest.raises(AttributeError):
            link.up = False  # read-only: change_links is the one writer
        hold(net, "a", "b", "first")
        hold(net, "a", "b", "second")
        hold(net, "a", "b", "second")  # idempotent, not counted
        assert not link.released_by({"first"})
        assert link.released_by({"first", "second", "bystander"})
        release(net, "a", "b", "first")
        assert not link.up and not topo.reachable("a", "b")
        release(net, "a", "b", "second")
        assert link.up and topo.reachable("a", "b")
        assert not link.released_by({"second"})  # already up

    def test_components(self):
        topo = Topology.full_mesh(["a", "b", "c", "d"])
        PartitionManager(Network(Simulator(), topo)).partition_now(
            [{"a"}, {"b", "c", "d"}]
        )
        comps = sorted(topo.components(), key=len)
        assert comps[0] == {"a"}
        assert comps[1] == {"b", "c", "d"}

    def test_errors(self):
        topo = Topology(["a", "b"])
        with pytest.raises(NetworkError):
            topo.add_link("a", "zzz")
        with pytest.raises(NetworkError):
            topo.add_link("a", "a")
        topo.add_link("a", "b")
        with pytest.raises(NetworkError):
            topo.add_link("a", "b")
        with pytest.raises(NetworkError):
            topo.link("a", "nope")
        with pytest.raises(NetworkError):
            Topology(["x"]).path_latency("x", "nope")


class TestNetworkDelivery:
    def test_basic_delivery_with_latency(self):
        sim, topo, net = make_net(latency=3.0)
        received = []
        net.register("B", lambda m: received.append((sim.now, m.payload)))
        net.register("A", lambda m: None)
        net.send("A", "B", "test", {"x": 1})
        sim.run()
        assert received == [(3.0, {"x": 1})]

    def test_channel_fifo_despite_route_change(self):
        # A message sent over a slow route must not overtake an earlier
        # one after the route gets faster.
        sim = Simulator()
        topo = Topology(["a", "b", "c"])
        topo.add_link("a", "c", 10.0)
        topo.add_link("a", "b", 1.0)
        topo.add_link("b", "c", 1.0)
        net = Network(sim, topo)
        received = []
        net.register("c", lambda m: received.append(m.payload))
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        hold(net, "a", "b")  # force the slow route
        net.send("a", "c", "m", 1)
        release(net, "a", "b")  # fast route back
        net.send("a", "c", "m", 2)
        sim.run()
        assert received == [1, 2]

    def test_held_across_partition_and_released(self):
        sim, topo, net = make_net(["A", "B"])
        received = []
        net.register("B", lambda m: received.append(sim.now))
        net.register("A", lambda m: None)
        manager = PartitionManager(net)
        manager.partition_now([["A"], ["B"]])
        net.send("A", "B", "m", "hello")
        sim.run()
        assert received == []
        assert net.held_count() == 1
        manager.heal_now()
        sim.run()
        assert len(received) == 1
        assert net.held_count() == 0

    def test_message_in_flight_when_partition_forms_is_held(self):
        sim, topo, net = make_net(["A", "B"], latency=5.0)
        received = []
        net.register("B", lambda m: received.append(sim.now))
        net.register("A", lambda m: None)
        manager = PartitionManager(net)
        net.send("A", "B", "m", 1)  # would deliver at t=5
        sim.schedule(2.0, lambda: manager.partition_now([["A"], ["B"]]))
        sim.schedule(20.0, manager.heal_now)
        sim.run()
        assert len(received) == 1
        assert received[0] >= 20.0  # not lost, delivered after the heal

    def test_message_reheld_in_flight_stays_ahead_of_later_sends(self):
        sim, topo, net = make_net(["A", "B"], latency=5.0)
        received = []
        net.register("B", lambda m: received.append(m.payload))
        net.register("A", lambda m: None)
        manager = PartitionManager(net)
        net.send("A", "B", "m", "m1")  # in flight until t=5
        sim.schedule(2.0, lambda: manager.partition_now([["A"], ["B"]]))
        sim.schedule(3.0, lambda: net.send("A", "B", "m", "m2"))  # held at send
        sim.schedule(20.0, manager.heal_now)  # m1 was re-held at t=5
        sim.run()
        assert received == ["m1", "m2"]

    @pytest.mark.parametrize("heal_at", [3.5, 4.0])
    def test_heal_while_a_later_send_is_still_in_flight(self, heal_at):
        # m1 is stopped at B's edge at t=3; m2, sent before the cut, is
        # due at t=4 — after the early heal, in the same instant as the
        # late one (the heal event is scheduled first, so it fires
        # first).  m1 crossed the wire already: the heal hands it over,
        # it does not travel again behind m2.
        sim, topo, net = make_net(["A", "B"], latency=3.0)
        received = []
        net.register("B", lambda m: received.append((m.payload, sim.now)))
        net.register("A", lambda m: None)
        manager = PartitionManager(net)
        sim.schedule_at(heal_at, manager.heal_now)
        net.send("A", "B", "m", "m1")
        sim.schedule_at(1.0, lambda: net.send("A", "B", "m", "m2"))
        sim.schedule_at(2.0, lambda: manager.partition_now([["A"], ["B"]]))
        sim.schedule_at(2.5, lambda: net.send("A", "B", "m", "m3"))
        sim.run()
        assert received == [
            ("m1", heal_at),
            ("m2", 4.0),
            ("m3", heal_at + 3.0),
        ]
        assert net.held_count() == 0
        assert net.messages_delivered == 3

    def test_handler_reply_during_a_heal_stays_behind_queued_sends(self):
        # B queued "b1" for A during the cut; A's "a1" was stopped at
        # B's edge.  The heal hands "a1" to B, whose reply must not
        # pass "b1" on the B->A channel.
        sim, topo, net = make_net(["A", "B"], latency=2.0)
        at_a = []
        net.register("A", lambda m: at_a.append(m.payload))
        net.register("B", lambda m: net.send("B", "A", "m", f"re:{m.payload}"))
        manager = PartitionManager(net)
        net.send("A", "B", "m", "a1")
        sim.schedule_at(1.0, lambda: manager.partition_now([["A"], ["B"]]))
        sim.schedule_at(3.0, lambda: net.send("B", "A", "m", "b1"))
        sim.schedule_at(5.0, manager.heal_now)
        sim.run()
        assert at_a == ["b1", "re:a1"]

    def test_stats_and_errors(self):
        sim, topo, net = make_net(["A", "B"])
        net.register("A", lambda m: None)
        net.register("B", lambda m: None)
        with pytest.raises(NetworkError):
            net.register("A", lambda m: None)
        net.send("A", "B", "kind1", 1)
        net.send("A", "B", "kind1", 2)
        sim.run()
        assert net.messages_sent == 2
        assert net.messages_delivered == 2
        assert net.messages_by_kind["kind1"] == 2

    def test_loopback_delivers_via_zero_latency_event(self):
        sim, topo, net = make_net(["A", "B"])
        received = []
        net.register("A", lambda m: received.append(m))
        net.register("B", lambda m: None)
        net.send("A", "A", "self-note", 42)
        # Asynchronous: nothing delivered until the simulator runs.
        assert received == []
        sim.run()
        assert [m.payload for m in received] == [42]
        assert received[0].src == "A" and received[0].dst == "A"
        assert net.messages_sent == 1
        assert net.messages_delivered == 1

    def test_loopback_ignores_partitions_and_counts_by_kind(self):
        sim, topo, net = make_net(["A", "B"])
        received = []
        net.register("A", lambda m: received.append(sim.now))
        net.register("B", lambda m: None)
        manager = PartitionManager(net)
        manager.partition_now([["A"], ["B"]])
        net.send("A", "A", "self-note", 1)
        sim.run()
        assert received == [0.0]  # a node is never partitioned from itself
        assert net.held_count() == 0
        assert net.messages_by_kind["self-note"] == 1


class TestPartitionSpec:
    def test_duration_and_validation(self):
        spec = PartitionSpec(10.0, 30.0, [["a"], ["b"]])
        assert spec.duration == 20.0
        with pytest.raises(NetworkError):
            PartitionSpec(10.0, 10.0, [["a"], ["b"]])

    def test_overlapping_groups_rejected(self):
        sim, topo, net = make_net()
        manager = PartitionManager(net)
        with pytest.raises(NetworkError):
            manager.partition_now([["A", "B"], ["B", "C"]])

    def test_scheduled_episode(self):
        sim, topo, net = make_net(["A", "B"])
        net.register("A", lambda m: None)
        net.register("B", lambda m: None)
        manager = PartitionManager(net)
        manager.install([PartitionSpec(5.0, 15.0, [["A"], ["B"]], "ep1")])
        sim.run(until=6.0)
        assert not topo.reachable("A", "B")
        sim.run(until=16.0)
        assert topo.reachable("A", "B")
        assert manager.partitions_applied == 1
        assert manager.heals_applied == 1


class TestReliableBroadcast:
    def make(self, nodes=("A", "B", "C")):
        sim = Simulator()
        topo = Topology.full_mesh(nodes)
        net = Network(sim, topo)
        bcast = ReliableBroadcast(net)
        logs = {n: [] for n in nodes}
        for n in nodes:
            bcast.attach(n, lambda s, q, b, n=n: logs[n].append((s, q, b)))
        return sim, net, bcast, logs

    def test_sender_delivers_to_self_synchronously(self):
        sim, net, bcast, logs = self.make()
        bcast.broadcast("A", "hello")
        assert logs["A"] == [("A", 0, "hello")]
        assert logs["B"] == []
        sim.run()
        assert logs["B"] == [("A", 0, "hello")]

    def test_per_sender_fifo_order(self):
        sim, net, bcast, logs = self.make()
        for i in range(5):
            bcast.broadcast("A", i)
        sim.run()
        for node in logs:
            assert [b for (_s, _q, b) in logs[node]] == [0, 1, 2, 3, 4]

    def test_order_preserved_across_partition(self):
        sim, net, bcast, logs = self.make(("A", "B"))
        manager = PartitionManager(net)
        bcast.broadcast("A", "before")
        sim.run()  # "before" delivered while connected
        assert [b for (_s, _q, b) in logs["B"]] == ["before"]
        manager.partition_now([["A"], ["B"]])
        bcast.broadcast("A", "during-1")
        bcast.broadcast("A", "during-2")
        sim.run()
        assert [b for (_s, _q, b) in logs["B"]] == ["before"]
        manager.heal_now()
        sim.run()
        assert [b for (_s, _q, b) in logs["B"]] == [
            "before",
            "during-1",
            "during-2",
        ]

    def test_in_flight_broadcast_held_not_lost(self):
        sim, net, bcast, logs = self.make(("A", "B"))
        manager = PartitionManager(net)
        bcast.broadcast("A", "in-flight")  # would deliver at t=1
        manager.partition_now([["A"], ["B"]])  # forms at t=0
        sim.run()
        assert logs["B"] == []  # held, not delivered
        manager.heal_now()
        sim.run()
        assert [b for (_s, _q, b) in logs["B"]] == ["in-flight"]

    def test_multicast_honours_targets(self):
        sim, net, bcast, logs = self.make(("A", "B", "C", "D"))
        bcast.multicast("A", "to-b-and-c", targets=["B", "C"], stream="s")
        # "Z" is not attached: skipped, not an error.
        bcast.multicast("A", "to-a-and-d", targets=["A", "D", "Z"], stream="s")
        sim.run()
        assert logs["A"] == [("A", 1, "to-a-and-d")]  # only when targeted
        assert logs["B"] == [("A", 0, "to-b-and-c")]
        assert logs["C"] == [("A", 0, "to-b-and-c")]
        assert logs["D"] == [("A", 1, "to-a-and-d")]
        assert net.messages_sent == 3

    def test_seq_is_monotone_per_sender_and_stream(self):
        sim, net, bcast, logs = self.make()
        assert bcast.next_seq("A", "s") == 0
        seqs = [
            bcast.multicast("A", None, stream="s"),
            bcast.multicast("A", None, stream="t"),
            bcast.multicast("B", None, stream="s"),
            bcast.multicast("A", None, stream="s"),
            bcast.broadcast("A", None),
        ]
        assert seqs == [0, 0, 0, 1, 0]
        assert bcast.next_seq("A", "s") == 2

    def test_fan_out_keeps_no_receiver_state(self):
        """A payload is handed on as it arrives: whatever order and
        however often the channel delivers is what the node sees."""
        from repro.net.broadcast import SeqPayload
        from repro.net.message import Message

        sim, net, bcast, logs = self.make(("A", "B"))
        for seq in (5, 0, 0):
            payload = SeqPayload("A", seq, "k", f"m{seq}")
            bcast.handle_message(Message("A", "B", "k", payload))
        assert logs["B"] == [("A", 5, "m5"), ("A", 0, "m0"), ("A", 0, "m0")]

    def test_interleaved_senders_fifo_per_sender(self):
        sim, net, bcast, logs = self.make()
        bcast.broadcast("A", "a0")
        bcast.broadcast("B", "b0")
        bcast.broadcast("A", "a1")
        bcast.broadcast("B", "b1")
        sim.run()
        for node in logs:
            from_a = [b for (s, _q, b) in logs[node] if s == "A"]
            from_b = [b for (s, _q, b) in logs[node] if s == "B"]
            assert from_a == ["a0", "a1"]
            assert from_b == ["b0", "b1"]
