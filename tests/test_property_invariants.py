"""Property-based invariant tests for the substrate layers."""

from hypothesis import example, given, settings, strategies as st

from repro.cc.locks import LockMode, LockTable
from repro.net import Network, ReliableBroadcast, Topology
from repro.sim import SeededRng, Simulator

OBJECTS = ["x", "y", "z"]
TXNS = ["T0", "T1", "T2", "T3"]


@st.composite
def lock_scripts(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    script = []
    for _ in range(n):
        if draw(st.booleans()):
            script.append(
                (
                    "acquire",
                    draw(st.sampled_from(TXNS)),
                    draw(st.sampled_from(OBJECTS)),
                    draw(st.sampled_from([LockMode.S, LockMode.X])),
                )
            )
        else:
            script.append(("release", draw(st.sampled_from(TXNS))))
    return script


class TestLockTableInvariants:
    @given(lock_scripts())
    @settings(max_examples=200)
    def test_no_conflicting_holders_ever(self, script):
        table = LockTable()
        for step in script:
            if step[0] == "acquire":
                _op, txn, obj, mode = step
                table.acquire(txn, obj, mode)
            else:
                table.release_all(step[1])
            for obj in OBJECTS:
                holders = table.holders_of(obj)
                x_holders = [
                    t for t, m in holders.items() if m is LockMode.X
                ]
                assert len(x_holders) <= 1
                if x_holders:
                    assert len(holders) == 1  # X excludes everything

    @given(lock_scripts())
    @settings(max_examples=100)
    def test_releasing_everyone_empties_the_table(self, script):
        table = LockTable()
        for step in script:
            if step[0] == "acquire":
                _op, txn, obj, mode = step
                table.acquire(txn, obj, mode)
            else:
                table.release_all(step[1])
        for txn in TXNS:
            table.release_all(txn)
        for obj in OBJECTS:
            assert table.holders_of(obj) == {}
            assert table.queued_for(obj) == []

    @given(lock_scripts())
    @settings(max_examples=100)
    def test_granted_waiters_actually_hold(self, script):
        table = LockTable()
        for step in script:
            if step[0] == "acquire":
                _op, txn, obj, mode = step
                table.acquire(txn, obj, mode)
            else:
                granted = table.release_all(step[1])
                for txn, obj, mode in granted:
                    held = table.holders_of(obj).get(txn)
                    assert held is mode or held is LockMode.X


#: Timed send / cut / heal steps over the channels of a 3-node mesh.
channel_scripts = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        st.sampled_from(["send", "send", "send", "cut", "heal"]),
        st.sampled_from([("A", "B"), ("B", "A"), ("A", "C")]),
    ),
    min_size=1,
    max_size=40,
).map(lambda steps: sorted(steps, key=lambda step: step[0]))


class TestChannelFifoInvariants:
    @given(script=channel_scripts)
    # The script that turned ``main`` red: message 0 is stopped at B's
    # edge at t=3, message 2 is still in flight when A-B heals at t=4.
    @example(
        script=[
            (0.0, "send", ("A", "B")),
            (1.0, "cut", ("A", "C")),
            (1.0, "send", ("A", "B")),
            (1.0, "cut", ("A", "B")),
            (4.0, "heal", ("A", "B")),
        ]
    )
    # A->C reroutes over the healed A-B; the FIFO floor lifts message 3
    # to message 1's arrival time, which the simulator must not round.
    @example(
        script=[
            (0.0, "cut", ("A", "B")),
            (0.05, "send", ("A", "C")),
            (1.0, "heal", ("A", "B")),
            (1.2493307495167518, "send", ("A", "C")),
        ]
    )
    @settings(max_examples=200)
    def test_unicast_delivery_order_equals_send_order(self, script):
        """Per-channel FIFO is the bare network's own contract: no
        broadcast layer, no reliable transport, links cut and healed
        while messages are in flight."""
        sim = Simulator()
        topo = Topology(["A", "B", "C"])
        topo.add_link("A", "B", 3.0)
        topo.add_link("B", "C", 1.0)
        topo.add_link("A", "C", 7.0)  # A->C reroutes when A-B is cut
        net = Network(sim, topo)
        delivered = {}
        for node in topo.nodes:
            net.register(
                node,
                lambda m: delivered.setdefault((m.src, m.dst), []).append(
                    m.payload
                ),
            )
        sent = {}

        def step(index, action, channel):
            if action == "send":
                sent.setdefault(channel, []).append(index)
                net.send(*channel, "m", index)
            else:
                topo.set_link_up(*channel, action == "heal")
                net.topology_changed()

        for index, (at, action, channel) in enumerate(script):
            sim.schedule_at(
                at, lambda i=index, a=action, c=channel: step(i, a, c)
            )
        sim.run()
        for link in topo.links:
            link.up = True
        net.topology_changed()
        sim.run()
        assert delivered == sent
        assert net.held_count() == 0


class TestBroadcastInvariants:
    @given(
        sends=st.lists(
            st.tuples(
                st.sampled_from(["A", "B"]), st.sampled_from(["", "s", "t"])
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_seq_is_dense_per_sender_and_stream(self, sends):
        net = Network(Simulator(), Topology.full_mesh(["A", "B"]))
        bcast = ReliableBroadcast(net)
        bcast.attach("A", lambda s, q, b: None)
        bcast.attach("B", lambda s, q, b: None)
        assigned = {}
        for sender, stream in sends:
            seq = bcast.multicast(sender, None, stream=stream)
            assigned.setdefault((sender, stream), []).append(seq)
        for seqs in assigned.values():
            assert seqs == list(range(len(seqs)))


class TestSimulatorInvariants:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=50)
    def test_rng_fork_stability(self, seed):
        a = SeededRng(seed).fork("label")
        b = SeededRng(seed).fork("label")
        assert [a.randint(0, 100) for _ in range(5)] == [
            b.randint(0, 100) for _ in range(5)
        ]
