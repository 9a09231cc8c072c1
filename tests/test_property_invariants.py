"""Property-based invariant tests for the substrate layers."""

import itertools

from hypothesis import example, given, settings, strategies as st

from repro import FragmentedDatabase, PartitionSpec
from repro.cc.locks import LockMode, LockTable
from repro.cc.ops import Read, Write
from repro.net import Network, ReliableBroadcast, Topology
from repro.net.faults import FaultPlan, LinkFlap
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


#: Timed send / cut / heal steps over the channels of a 3-node mesh;
#: a cut or heal acts for one of two holders, so holds overlap.
channel_scripts = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        st.sampled_from(["send", "send", "send", "cut", "heal"]),
        st.sampled_from([("A", "B"), ("B", "A"), ("A", "C")]),
        st.sampled_from(["h1", "h2"]),
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
            (0.0, "send", ("A", "B"), "h1"),
            (1.0, "cut", ("A", "C"), "h1"),
            (1.0, "send", ("A", "B"), "h1"),
            (1.0, "cut", ("A", "B"), "h1"),
            (4.0, "heal", ("A", "B"), "h1"),
        ]
    )
    # A->C reroutes over the healed A-B; the FIFO floor lifts message 3
    # to message 1's arrival time, which the simulator must not round.
    @example(
        script=[
            (0.0, "cut", ("A", "B"), "h1"),
            (0.05, "send", ("A", "C"), "h1"),
            (1.0, "heal", ("A", "B"), "h1"),
            (1.2493307495167518, "send", ("A", "C"), "h1"),
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

        def step(index, action, channel, holder):
            if action == "send":
                sent.setdefault(channel, []).append(index)
                net.send(*channel, "m", index)
            elif action == "cut":
                net.change_links(hold=[(topo.link(*channel), holder)])
            else:
                net.change_links(release=[(topo.link(*channel), holder)])

        for index, (at, *rest) in enumerate(script):
            sim.schedule_at(at, lambda i=index, r=rest: step(i, *r))
        sim.run()
        net.change_links(
            release=[
                (link, holder) for link in topo.links for holder in ("h1", "h2")
            ]
        )
        sim.run()
        assert delivered == sent
        assert net.held_count() == 0


MESH = ["N0", "N1", "N2", "N3"]
#: Episode shapes: two and three groups, with and without a bystander.
SPLITS = [
    [["N0", "N1"], ["N2", "N3"]],
    [["N0"], ["N1", "N2", "N3"]],
    [["N0", "N2"], ["N1"]],
    [["N0"], ["N1"], ["N2", "N3"]],
    [["N3"], ["N1", "N2"]],
]
ticks = st.integers(min_value=0, max_value=40).map(float)
spans = st.integers(min_value=1, max_value=15).map(float)
#: Immediate actions; the agent's home N0 stays alive (§4.4.1 handles a
#: dead home by moving the agent, not by executing updates on it).
fault_steps = st.lists(
    st.tuples(
        ticks,
        st.one_of(
            st.tuples(st.just("fail"), st.sampled_from(MESH[1:])),
            st.tuples(st.just("recover"), st.sampled_from(MESH[1:])),
            st.tuples(st.just("partition"), st.sampled_from(SPLITS)),
            st.tuples(st.just("heal"), st.none()),
            st.tuples(st.just("update"), st.none()),
        ),
    ),
    max_size=25,
).map(lambda steps: sorted(steps, key=lambda step: step[0]))
scripted_episodes = st.lists(
    st.tuples(ticks, spans, st.sampled_from(SPLITS)), max_size=3
)
scripted_flaps = st.lists(
    st.tuples(ticks, st.sampled_from(MESH), st.sampled_from(MESH), spans)
    .filter(lambda flap: flap[1] != flap[2]),
    max_size=3,
)


class TestLinkStateInvariants:
    @given(steps=fault_steps, episodes=scripted_episodes, flaps=scripted_flaps)
    @settings(max_examples=150)
    def test_link_is_up_iff_nothing_keeps_it_down(self, steps, episodes, flaps):
        """Crashes, scripted and immediate episodes, ``heal_now`` and
        flaps in any order: a link is up exactly when both endpoints
        are alive, no active episode separates them and no flap window
        is open on it — by a model that has never heard of holders."""
        db = FragmentedDatabase(
            MESH,
            faults=FaultPlan(
                flaps=[LinkFlap(at, a, b, span) for at, a, b, span in flaps],
                partitions=[
                    PartitionSpec(start, start + span, groups)
                    for start, span, groups in episodes
                ],
            ),
        )
        db.add_agent("ag", home_node="N0")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.load({"x": 0})
        db.finalize()
        sent, handled = {}, {}
        send, dispatch = db.network.send, db.network.dispatch

        def logged_send(src, dst, kind, payload):
            message = send(src, dst, kind, payload)
            sent.setdefault((src, dst), []).append(message)
            return message

        def logged_dispatch(message):
            handled.setdefault((message.src, message.dst), []).append(message)
            dispatch(message)

        db.network.send, db.network.dispatch = logged_send, logged_dispatch

        def bump(_ctx):
            value = yield Read("x")
            yield Write("x", value + 1)

        # The model: dead nodes, active episodes by number (scripted
        # ones first, immediate ones after), flap windows by the clock.
        dead, active = set(), {}
        immediate = itertools.count(len(episodes))

        def check(now):
            for link in db.topology.links:
                a, b = link.a, link.b
                separated = any(
                    sum(1 for group in groups if a in group or b in group) == 2
                    for groups in active.values()
                )
                flapping = any(
                    {a, b} == {fa, fb} and at <= now < at + span
                    for at, fa, fb, span in flaps
                )
                assert link.up == (
                    a not in dead and b not in dead
                    and not separated and not flapping
                ), (now, a, b)

        moments = {at for at, _ in steps}
        moments |= {at for at, *_ in flaps} | {f[0] + f[3] for f in flaps}
        moments |= {e[0] for e in episodes} | {e[0] + e[1] for e in episodes}
        for now in sorted(moments):
            db.run(until=now)  # the scripted events at ``now`` have fired
            for number, (start, span, groups) in enumerate(episodes):
                if start == now:
                    active[number] = groups
                if start + span == now:
                    active.pop(number, None)
            check(now)
            for at, (action, arg) in steps:
                if at != now:
                    continue
                if action == "fail":
                    db.fail_node(arg)
                    dead.add(arg)
                elif action == "recover":
                    db.recover_node(arg)
                    dead.discard(arg)
                elif action == "partition":
                    db.partitions.partition_now(arg)
                    active[next(immediate)] = arg
                elif action == "heal":
                    db.partitions.heal_now()
                    active.clear()
                else:
                    db.submit_update("ag", bump, writes=["x"])
                check(now)
        for node in MESH[1:]:
            db.recover_node(node)
        db.partitions.heal_now()
        db.quiesce()
        assert all(link.up for link in db.topology.links)
        assert db.network.held_count() == 0
        assert {c: [id(m) for m in ms] for c, ms in handled.items()} == {
            c: [id(m) for m in ms] for c, ms in sent.items()
        }  # per channel, handler order is send order
        assert db.mutual_consistency().consistent


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
