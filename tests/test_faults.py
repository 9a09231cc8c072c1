"""Fault injection + reliable delivery: the lossy-substrate test suite.

Covers the three tentpole layers bottom-up: the seeded
:class:`FaultInjector` (loss, duplication, jitter, flaps), the
ack/retransmit :class:`ReliableTransport` beneath it, the reliable
broadcast's exactly-once/FIFO contract on top of both (as a Hypothesis
property), and the nemesis harness's seed-reproducibility.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FragmentedDatabase, Read, Write
from repro.errors import NetworkError
from repro.net.broadcast import ReliableBroadcast
from repro.net.faults import (
    MAX_LOSS_RATE,
    CrashEpisode,
    FaultInjector,
    FaultPlan,
    LinkFlap,
    LossBurst,
)
from repro.net.network import Network
from repro.net.reliable import ReliableConfig, ReliableTransport
from repro.net.topology import Topology
from repro.sim.rng import SeededRng
from repro.sim.simulator import Simulator


def make_net(nodes=("A", "B", "C"), latency=1.0):
    sim = Simulator()
    topo = Topology.full_mesh(list(nodes), latency)
    net = Network(sim, topo)
    return sim, topo, net


def attach_injector(net, plan, seed=11):
    return FaultInjector(net, plan, SeededRng(seed))


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(NetworkError):
            FaultPlan(loss_rate=1.5)
        with pytest.raises(NetworkError):
            FaultPlan(dup_rate=-0.1)
        with pytest.raises(NetworkError):
            FaultPlan(jitter=-1.0)

    def test_episode_windows_must_be_ordered(self):
        with pytest.raises(NetworkError):
            LossBurst(10.0, 10.0, 0.5)
        with pytest.raises(NetworkError):
            LinkFlap(5.0, "A", "B", 0.0)
        with pytest.raises(NetworkError):
            CrashEpisode("A", 10.0, 5.0)

    def test_message_faults_property(self):
        assert not FaultPlan().message_faults
        assert not FaultPlan(crashes=(CrashEpisode("A", 1.0, 2.0),)).message_faults
        assert FaultPlan(loss_rate=0.1).message_faults
        assert FaultPlan(bursts=(LossBurst(0.0, 1.0, 0.5),)).message_faults


class TestInjectorMessageFaults:
    def test_loss_drops_some_messages(self):
        sim, _topo, net = make_net()
        received = []
        net.register("B", received.append)
        net.register("A", lambda m: None)
        injector = attach_injector(net, FaultPlan(loss_rate=0.5))
        for _ in range(200):
            net.send("A", "B", "m", 0)
        sim.run()
        assert 0 < len(received) < 200
        assert injector.dropped == 200 - len(received)
        assert net.metrics.value("fault.messages_dropped") == injector.dropped

    def test_duplication_without_transport_delivers_twice(self):
        sim, _topo, net = make_net()
        received = []
        net.register("B", received.append)
        net.register("A", lambda m: None)
        injector = attach_injector(net, FaultPlan(dup_rate=1.0))
        net.send("A", "B", "m", 7)
        sim.run()
        assert [m.payload for m in received] == [7, 7]
        assert injector.duplicated == 1

    def test_jitter_perturbs_delivery_times(self):
        sim, _topo, net = make_net(latency=1.0)
        times = []
        net.register("B", lambda m: times.append(sim.now))
        net.register("A", lambda m: None)
        attach_injector(net, FaultPlan(jitter=5.0))
        for _ in range(20):
            net.send("A", "B", "m", 0)
        sim.run()
        assert any(t > 1.0 for t in times)
        assert all(1.0 <= t <= 6.0 for t in times)

    def test_same_seed_reproduces_the_exact_fault_sequence(self):
        outcomes = []
        for _ in range(2):
            sim, _topo, net = make_net()
            times = []
            net.register("B", lambda m, times=times, sim=sim: times.append(sim.now))
            net.register("A", lambda m: None)
            injector = attach_injector(
                net, FaultPlan(loss_rate=0.3, dup_rate=0.3, jitter=3.0), seed=42
            )
            for _ in range(50):
                net.send("A", "B", "m", 0)
            sim.run()
            outcomes.append((injector.dropped, injector.duplicated, times))
        assert outcomes[0] == outcomes[1]

    def test_loss_rate_is_capped(self):
        sim, _topo, net = make_net()
        received = []
        net.register("B", received.append)
        net.register("A", lambda m: None)
        plan = FaultPlan(
            loss_rate=0.9, bursts=(LossBurst(0.0, 1e9, 0.9),)
        )
        injector = attach_injector(net, plan)
        assert injector._loss_rate(
            type("M", (), {"src": "A", "dst": "B"})()
        ) == MAX_LOSS_RATE
        for _ in range(400):
            net.send("A", "B", "m", 0)
        sim.run()
        assert received  # 0.95 cap: some messages still get through

    def test_per_link_loss_override(self):
        sim, _topo, net = make_net()
        got_b, got_c = [], []
        net.register("A", lambda m: None)
        net.register("B", got_b.append)
        net.register("C", got_c.append)
        plan = FaultPlan(
            loss_rate=0.0, link_loss={frozenset(("A", "B")): 0.95}
        )
        attach_injector(net, plan)
        for _ in range(100):
            net.send("A", "B", "m", 0)
            net.send("A", "C", "m", 0)
        sim.run()
        assert len(got_c) == 100  # untouched link stays lossless
        assert len(got_b) < 100


class TestLinkFlaps:
    def test_flap_cuts_then_revives_the_link(self):
        sim, topo, net = make_net()
        times = []
        net.register("B", lambda m: times.append(sim.now))
        net.register("A", lambda m: None)
        injector = attach_injector(
            net, FaultPlan(flaps=(LinkFlap(10.0, "A", "B", 5.0),))
        )
        injector.install()
        sim.schedule_at(11.0, lambda: net.send("A", "B", "m", 0))
        sim.run()
        # A-B direct link is down 10..15, but the full mesh routes the
        # message via C at double latency; the flap only slows it.
        assert times == [13.0]
        assert topo.link("A", "B").up

    def test_flap_does_not_revive_a_link_someone_else_downed(self):
        sim, topo, net = make_net()
        net.register("A", lambda m: None)
        net.register("B", lambda m: None)
        injector = attach_injector(
            net, FaultPlan(flaps=(LinkFlap(10.0, "A", "B", 5.0),))
        )
        injector.install()
        other = [(topo.link("A", "B"), "someone else")]
        sim.schedule_at(5.0, lambda: net.change_links(hold=other))
        sim.run()
        assert not topo.link("A", "B").up  # not the flap's to revive
        assert net.metrics.value("fault.flaps") == 0  # no up->down of its own

    def test_another_holder_outlasts_the_flap_up(self):
        """A holder that takes the link mid-flap keeps it down past
        the flap's window; the link comes up when that holder lets go."""
        sim, topo, net = make_net()
        net.register("A", lambda m: None)
        net.register("B", lambda m: None)
        injector = attach_injector(
            net, FaultPlan(flaps=(LinkFlap(10.0, "A", "B", 5.0),))
        )
        injector.install()
        other = [(topo.link("A", "B"), "someone else")]
        sim.schedule_at(12.0, lambda: net.change_links(hold=other))
        sim.run()
        assert not topo.link("A", "B").up
        net.change_links(release=other)
        assert topo.link("A", "B").up


class TestReliableTransport:
    def test_loss_is_recovered_exactly_once_in_order(self):
        sim, _topo, net = make_net()
        received = []
        net.register("B", received.append)
        net.register("A", lambda m: None)
        ReliableTransport(net, ReliableConfig(base_rto=3.0))
        attach_injector(net, FaultPlan(loss_rate=0.4, dup_rate=0.3))
        for index in range(40):
            net.send("A", "B", "m", index)
        sim.run()
        assert [m.payload for m in received] == list(range(40))

    def test_acks_retire_outstanding_packets(self):
        sim, _topo, net = make_net()
        net.register("B", lambda m: None)
        net.register("A", lambda m: None)
        transport = ReliableTransport(net)
        net.send("A", "B", "m", 1)
        assert transport.unacked_count() == 1
        sim.run()
        assert transport.unacked_count() == 0
        assert transport.retransmits == 0

    def test_retransmit_pauses_while_partitioned(self):
        sim, topo, net = make_net(nodes=("A", "B"))
        received = []
        net.register("B", received.append)
        net.register("A", lambda m: None)
        # An outage that outlasts the whole retry budget (2 x 3.0).
        transport = ReliableTransport(
            net, ReliableConfig(base_rto=3.0, max_rto=3.0, max_retries=2)
        )
        outage = [(topo.link("A", "B"), "outage")]
        net.change_links(hold=outage)
        net.send("A", "B", "m", 1)  # held by the network
        sim.schedule_at(50.0, lambda: net.change_links(release=outage))
        sim.run(until=49.0)
        # Parked by its first timer; nothing has fired since, and the
        # heal is the only event left.
        assert net.metrics.value("retrans.paused") == 1
        assert sim.events_fired == 1 and sim.pending == 1
        sim.run()
        assert [m.payload for m in received] == [1]
        assert transport.exhausted == 0 and transport.retransmits == 0
        assert net.metrics.value("retrans.paused") == 1

    def test_bounded_retries_give_up_loudly(self):
        sim, _topo, net = make_net(nodes=("A", "B"))
        net.register("B", lambda m: None)
        net.register("A", lambda m: None)
        transport = ReliableTransport(
            net, ReliableConfig(base_rto=1.0, max_retries=2)
        )
        attach_injector(
            net, FaultPlan(link_loss={frozenset(("A", "B")): 1.0}), seed=3
        )
        for index in range(20):
            net.send("A", "B", "m", index)
        sim.run(max_events=200_000)
        assert transport.exhausted > 0
        assert transport.unacked_count() == 0  # gave up, state freed
        assert net.metrics.value("retrans.exhausted") == transport.exhausted

    def test_backoff_schedule_is_exponential_and_capped(self):
        config = ReliableConfig(base_rto=4.0, max_rto=60.0)
        assert [config.rto(n) for n in range(6)] == [
            4.0, 8.0, 16.0, 32.0, 60.0, 60.0
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReliableConfig(base_rto=0.0)
        with pytest.raises(ValueError):
            ReliableConfig(base_rto=10.0, max_rto=5.0)
        with pytest.raises(ValueError):
            ReliableConfig(max_retries=0)


def parked_pair():
    """A and B with a transport, and the hold that severs them."""
    sim, topo, net = make_net(nodes=("A", "B"))
    received = []
    net.register("A", lambda m: None)
    net.register("B", received.append)
    transport = ReliableTransport(net, ReliableConfig(base_rto=4.0))
    return sim, net, transport, received, [(topo.link("A", "B"), "cut")]


def replicated_db(nodes, **kwargs):
    """One fragment ``{x}`` homed at N0, replicated on ``nodes`` nodes."""
    names = [f"N{i}" for i in range(nodes)]
    db = FragmentedDatabase(names, reliable=True, **kwargs)
    db.add_agent("ag", home_node="N0")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()
    return db, names


def bump(obj):
    def body(_ctx):
        value = yield Read(obj)
        yield Write(obj, value + 1)
    return body


def assert_heal_cost_nothing(db, names):
    assert [db.nodes[n].store.read("x") for n in names] == [1] * len(names)
    assert db.transport.unacked_count() == 0
    for counter in ("resent", "duplicates_dropped", "exhausted"):
        assert db.metrics.value(f"retrans.{counter}") == 0, counter


class TestParkedRetransmits:
    """A disconnected channel costs its timers nothing until the heal."""

    def test_run_under_an_unhealed_partition_terminates(self):
        db, names = replicated_db(4)
        db.partitions.partition_now([names[:2], names[2:]])
        db.submit_update("ag", bump("x"), writes=["x"])
        # N1's delivery and ack, and the two severed peers' timers.
        db.sim.run(max_events=200_000)
        assert db.sim.events_fired == 4 and db.sim.pending == 0
        assert db.transport.unacked_count() == 2
        db.partitions.heal_now()
        db.quiesce()
        assert_heal_cost_nothing(db, names)

    @pytest.mark.parametrize("holder", ["crash", "flap"])
    def test_crash_holds_and_flap_windows_park_like_a_partition(self, holder):
        flaps = (LinkFlap(5.0, "N0", "N1", 200.0),) if holder == "flap" else ()
        db, names = replicated_db(2, faults=FaultPlan(flaps=flaps))
        db.run(until=6.0)
        if holder == "crash":
            db.fail_node("N1")
        db.submit_update("ag", bump("x"), writes=["x"])
        db.run(until=100.0)
        assert db.metrics.value("retrans.paused") == 1
        assert db.transport.unacked_count() == 1
        fired = db.sim.events_fired
        db.run(until=200.0)
        assert db.sim.events_fired == fired
        if holder == "crash":
            db.recover_node("N1")
        db.quiesce()  # the flap comes up at 205
        assert_heal_cost_nothing(db, names)
        assert db.metrics.value("retrans.paused") == 1

    def test_ack_handed_over_at_the_heal_leaves_nothing_to_rearm(self):
        sim, net, transport, received, cut = parked_pair()
        net.send("A", "B", "m", 1)  # lands at 1.0, its ack is due at 2.0
        sim.schedule_at(1.5, lambda: net.change_links(hold=cut))
        sim.run()
        assert [m.payload for m in received] == [1]
        assert net.metrics.value("retrans.paused") == 1
        assert net.held_count() == 1  # the ack, at A's edge
        net.change_links(release=cut)
        assert transport.unacked_count() == 0 and sim.pending == 0

    def test_loss_before_the_cut_is_repaired_one_rto_after_the_heal(self):
        sim, net, transport, received, cut = parked_pair()
        injector = attach_injector(
            net, FaultPlan(bursts=(LossBurst(0.0, 0.5, 1.0),)), seed=1
        )
        net.send("A", "B", "m", 1)
        assert injector.dropped == 1
        sim.schedule_at(1.0, lambda: net.change_links(hold=cut))
        sim.schedule_at(20.0, lambda: net.change_links(release=cut))
        sim.run()
        assert [(m.payload, m.sent_at) for m in received] == [(1, 24.0)]
        assert transport.retransmits == 1
        assert transport.duplicates_dropped == 0
        assert transport.unacked_count() == 0

    def test_second_cut_before_the_rearmed_timer_fires_parks_again(self):
        sim, net, transport, received, cut = parked_pair()
        net.change_links(hold=cut)
        net.send("A", "B", "m", 1)
        sim.schedule_at(10.0, lambda: net.change_links(release=cut))
        sim.schedule_at(10.5, lambda: net.change_links(hold=cut))
        sim.run()  # on the wire at 10, stopped at B's edge at 11
        assert received == [] and sim.pending == 0
        assert net.metrics.value("retrans.paused") == 2
        net.change_links(release=cut)
        sim.run()
        assert [m.payload for m in received] == [1]
        assert transport.retransmits == 0 and transport.unacked_count() == 0

    def test_partitioned_run_sends_each_message_once(self):
        """The benchmark's sim_partition_scale shape, scaled down, in
        counts no machine changes: polling cannot come back unnoticed."""
        nodes, updates, fragments, objects = 8, 100, 4, 4
        names = [f"N{i}" for i in range(nodes)]
        db = FragmentedDatabase(names, reliable=True)
        initial = {}
        for f in range(fragments):
            objs = [f"f{f}o{i}" for i in range(objects)]
            db.add_agent(f"ag{f}", home_node=names[f * nodes // fragments])
            db.add_fragment(f"F{f}", agent=f"ag{f}", objects=objs)
            initial.update(dict.fromkeys(objs, 0))
        db.load(initial)
        db.finalize()
        db.sim.schedule_at(
            10.0,
            lambda: db.partitions.partition_now(
                [names[: nodes // 2], names[nodes // 2:]]
            ),
        )
        db.sim.schedule_at(80.0, db.partitions.heal_now)
        rng = SeededRng(7)
        trackers = []
        for i in range(updates):
            f = rng.randint(0, fragments - 1)
            obj = f"f{f}o{rng.randint(0, objects - 1)}"
            db.run(until=i * 60.0 / updates)
            trackers.append(db.submit_update(f"ag{f}", bump(obj), writes=[obj]))
        db.quiesce()
        assert all(t.succeeded for t in trackers)
        assert db.mutual_consistency().consistent
        # One quasi-transaction and one ack per peer, nothing twice.
        assert db.network.messages_sent == 2 * updates * (nodes - 1)
        assert db.metrics.value("retrans.resent") == 0
        assert db.metrics.value("retrans.duplicates_dropped") == 0
        # Those deliveries, plus at most one parked timer per severed
        # peer (57.3 per update while the timers polled).
        assert db.sim.events_fired / updates < 2 * (nodes - 1) + nodes // 2 + 1


class TestBroadcastUnderFaults:
    """The tentpole claim: reliable FIFO broadcast survives a lossy net."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        loss=st.floats(min_value=0.0, max_value=0.5),
        dup=st.floats(min_value=0.0, max_value=0.5),
        n_messages=st.integers(min_value=1, max_value=25),
    )
    def test_exactly_once_per_seq_and_per_sender_fifo(
        self, seed, loss, dup, n_messages
    ):
        sim, _topo, net = make_net(nodes=("A", "B", "C"))
        broadcast = ReliableBroadcast(net)
        delivered = {node: [] for node in ("A", "B", "C")}
        for node in ("A", "B", "C"):
            broadcast.attach(
                node,
                lambda sender, seq, body, node=node: delivered[node].append(
                    (sender, seq, body)
                ),
            )
        ReliableTransport(net, ReliableConfig(base_rto=3.0))
        attach_injector(
            net, FaultPlan(loss_rate=loss, dup_rate=dup, jitter=2.0), seed=seed
        )
        rng = SeededRng(seed + 1)
        scheduled = []
        for index in range(n_messages):
            sender = rng.choice(["A", "B"])
            body = (sender, index)
            at = rng.uniform(0.0, 30.0)
            scheduled.append((at, sender, body))
            sim.schedule_at(
                at, lambda s=sender, b=body: broadcast.broadcast(s, b)
            )
        # The broadcast order is sim-time order, not index order (stable
        # sort mirrors the simulator's (time, seq) tie-break).
        expected = {sender: [] for sender in ("A", "B")}
        for _at, sender, body in sorted(scheduled, key=lambda s: s[0]):
            expected[sender].append(body)
        sim.run(max_events=1_000_000)
        for node, events in delivered.items():
            # Exactly once per (sender, seq): no duplicates, no gaps.
            seen = [(sender, seq) for sender, seq, _body in events]
            assert len(seen) == len(set(seen)), (node, seed)
            for sender in ("A", "B"):
                bodies = [
                    body for s, _seq, body in events if s == sender
                ]
                # Per-sender FIFO, complete: the send order, verbatim.
                assert bodies == expected[sender], (node, sender, seed)


class TestNemesisReproducibility:
    def test_same_seed_same_outcome(self):
        from repro.analysis.nemesis import NemesisConfig, run_nemesis

        config = NemesisConfig(
            loss_rate=0.2, dup_rate=0.1, jitter=2.0,
            n_bursts=1, n_flaps=1, n_crashes=1, n_partitions=1,
        )
        first = run_nemesis(17, "with-seqno", config)
        second = run_nemesis(17, "with-seqno", config)
        assert first == second
        assert first.state_hash == second.state_hash

    def test_fault_free_config_disables_injection(self):
        from repro.analysis.nemesis import NemesisConfig, run_nemesis

        result = run_nemesis(
            3,
            "with-data",
            NemesisConfig(
                loss_rate=0.0, dup_rate=0.0, jitter=0.0, n_partitions=0
            ),
        )
        assert result.drops == 0
        assert result.retransmits == 0
