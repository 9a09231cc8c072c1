"""Runtime backend tests: codec, scheduler, TCP mesh, determinism.

The asyncio backend's contract is *indistinguishability*: the protocol
stack schedules and sends through the same surface as the simulator,
so these tests drive real sockets and a real event loop through the
exact entry points the simulated tests use.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.availability import AvailabilityConfig
from repro.cc.ops import Write
from repro.core.system import FragmentedDatabase
from repro.core.transaction import QuasiTransaction
from repro.errors import DesignError, SimulationError
from repro.net.broadcast import SeqPayload
from repro.net.faults import FaultInjector, FaultPlan, LinkFlap
from repro.net.message import Message
from repro.net.network import Network
from repro.net.reliable import ReliableConfig, ReliableTransport, RPacket
from repro.storage.values import Version
from repro.net.topology import Topology
from repro.runtime.api import (
    CancellableHandle,
    SchedulerProtocol,
    TransportProtocol,
)
from repro.runtime.codec import MAX_FRAME, CodecError, WireCodec, default_codec
from repro.runtime.scheduler import AsyncioScheduler
from repro.runtime.tcp import TcpMeshNetwork
from repro.sim import Simulator
from repro.sim.rng import SeededRng

# ---------------------------------------------------------------------------
# Wire codec


def roundtrip(message: Message) -> Message:
    codec = default_codec()
    frame = codec.encode_frame(message)
    assert frame[:4] == (len(frame) - 4).to_bytes(4, "big")
    return codec.decode_frame(frame[4:])


def test_codec_roundtrips_plain_payload():
    message = Message(
        src="A", dst="B", kind="ping", payload={"n": 1, "s": "x"},
        sent_at=2.5,
    )
    back = roundtrip(message)
    assert back.src == "A" and back.dst == "B"
    assert back.kind == "ping"
    assert back.payload == {"n": 1, "s": "x"}
    assert back.sent_at == 2.5


def test_codec_roundtrips_structured_containers():
    payload = {
        "tuple": (1, 2, ("nested", 3)),
        "set": {3, 1, 2},
        "frozen": frozenset({"a", "b"}),
        "bytes": b"\x00\xff",
        "int_keys": {1: "one", 2: "two"},
    }
    back = roundtrip(Message("A", "B", "mixed", payload)).payload
    assert back["tuple"] == (1, 2, ("nested", 3))
    assert isinstance(back["tuple"], tuple)
    assert back["set"] == {1, 2, 3} and isinstance(back["set"], set)
    assert back["frozen"] == frozenset({"a", "b"})
    assert isinstance(back["frozen"], frozenset)
    assert back["bytes"] == b"\x00\xff"
    assert back["int_keys"] == {1: "one", 2: "two"}


def test_codec_reconstructs_registered_dataclasses():
    quasi = QuasiTransaction(
        source_txn="T1",
        fragment="F",
        agent="ag",
        origin_node="A",
        stream_seq=3,
        epoch=1,
        writes=[("x", Version(7, writer="T1", version_no=3))],
        origin_time=1.25,
    )
    packet = RPacket(
        cseq=9,
        kind="quasi",
        payload=SeqPayload("A", 4, "quasi", quasi, stream="F"),
    )
    back = roundtrip(Message("A", "B", "repl", packet)).payload
    # isinstance dispatch is what the receive path runs on — the codec
    # must hand back real instances, not dicts.
    assert isinstance(back, RPacket)
    assert isinstance(back.payload, SeqPayload)
    assert back.payload.stream == "F"
    inner = back.payload.body
    assert isinstance(inner, QuasiTransaction)
    assert inner.writes[0][0] == "x"
    version = inner.writes[0][1]
    assert isinstance(version, Version)
    assert (version.value, version.writer, version.version_no) == (7, "T1", 3)


#: The benchmark's one-update replication frame and a transport ack,
#: byte for byte as the codec has always framed them: a faster encoder
#: must not move a byte on the wire.
GOLDEN_FRAMES = {
    "replication": (
        b'\x00\x00\x02\xef{"src":"N0","dst":"N1","kind":"qt","sent_at":1.0,'
        b'"payload":{"__wire__":"dc","type":"RPacket","fields":{"cseq":7,'
        b'"kind":"qt","payload":{"__wire__":"dc","type":"SeqPayload",'
        b'"fields":{"sender":"N0","seq":7,"kind":"qt","body":{"type":"qtb",'
        b'"batch":{"__wire__":"dc","type":"QtBatch","fields":{"origin":"N0",'
        b'"qts":{"__wire__":"tuple","items":[{"__wire__":"dc",'
        b'"type":"QuasiTransaction","fields":{"source_txn":"T1",'
        b'"fragment":"F0","agent":"ag0","origin_node":"N0","stream_seq":1,'
        b'"epoch":0,"writes":[{"__wire__":"tuple","items":["f0o0",'
        b'{"__wire__":"dc","type":"Version","fields":{"value":1,'
        b'"writer":"T1","version_no":1,"timestamp":0.0}}]}],'
        b'"origin_time":0.0,"meta":{},"span":null}}]},"created_at":0.0,'
        b'"sealed_by":"direct","batch_id":-1}}},"stream":"f:F0"}}}}}'
    ),
    "ack": (
        b'\x00\x00\x00\xa7{"src":"N1","dst":"N0","kind":"rel-ack",'
        b'"sent_at":2.0,"payload":{"channel":{"__wire__":"tuple",'
        b'"items":["N0","N1"]},"cum":6,"sack":{"__wire__":"tuple",'
        b'"items":[8,9]}}}'
    ),
}


def golden_messages() -> dict[str, Message]:
    from repro.net.reliable import ACK_KIND
    from repro.replication.batch import QTB_TYPE, QtBatch

    quasi = QuasiTransaction(
        source_txn="T1",
        fragment="F0",
        agent="ag0",
        origin_node="N0",
        stream_seq=1,
        epoch=0,
        writes=[("f0o0", Version(1, "T1", 1, 0.0))],
        origin_time=0.0,
    )
    batch = QtBatch(origin="N0", qts=(quasi,), created_at=0.0)
    body = {"type": QTB_TYPE, "batch": batch}
    packet = RPacket(7, "qt", SeqPayload("N0", 7, "qt", body, "f:F0"))
    ack = {"channel": ("N0", "N1"), "cum": 6, "sack": (8, 9)}
    return {
        "replication": Message("N0", "N1", "qt", packet, sent_at=1.0),
        "ack": Message("N1", "N0", ACK_KIND, ack, sent_at=2.0),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_codec_frames_are_byte_identical_to_the_golden_bytes(name):
    codec = default_codec()
    message = golden_messages()[name]
    frame = codec.encode_frame(message)
    assert frame == GOLDEN_FRAMES[name]
    assert codec.encode_frame(codec.decode_frame(frame[4:])) == frame


class Odd:
    """Unregistered payload type."""


def test_codec_refuses_unregistered_types():
    codec = default_codec()
    with pytest.raises(CodecError, match="Odd"):
        codec.encode_frame(Message("A", "B", "odd", Odd()))
    # Nothing a peer sends is executed: the old fallback's tag is just
    # another unknown tag.
    with pytest.raises(CodecError, match="unknown wire tag"):
        codec.decode({"__wire__": "pickle", "b64": ""})


def test_codec_rejects_garbage_frames():
    codec = WireCodec()
    with pytest.raises(CodecError):
        codec.decode_frame(b"not json at all")


def frame_body(drop=None, **envelope) -> bytes:
    fields = {"src": "A", "dst": "B", "kind": "k", "sent_at": 0.0,
              "payload": None, **envelope}
    fields.pop(drop, None)
    return json.dumps(fields).encode()


MALFORMED_BODIES = {
    "not utf-8": b"\xff\xfe",
    "not an object": b"[1, 2]",
    "missing src": frame_body(drop="src"),
    "missing dst": frame_body(drop="dst"),
    "missing kind": frame_body(drop="kind"),
    "missing payload": frame_body(drop="payload"),
    "src not a string": frame_body(src=["A"]),
    "unknown tag": frame_body(payload={"__wire__": "pickle", "b64": ""}),
    "unregistered dc": frame_body(
        payload={"__wire__": "dc", "type": "Nope", "fields": {}}
    ),
    "dc fields do not fit": frame_body(
        payload={"__wire__": "dc", "type": "RPacket", "fields": {"x": 1}}
    ),
    "dc fields not an object": frame_body(
        payload={"__wire__": "dc", "type": "RPacket", "fields": [1]}
    ),
    "tag without its items": frame_body(payload={"__wire__": "tuple"}),
}


@pytest.mark.parametrize("body", MALFORMED_BODIES.values(),
                         ids=MALFORMED_BODIES.keys())
def test_codec_rejects_malformed_frames(body):
    with pytest.raises(CodecError):
        default_codec().decode_frame(body)


# ---------------------------------------------------------------------------
# AsyncioScheduler


@pytest.fixture
def sched():
    scheduler = AsyncioScheduler(tick=0.005)
    scheduler.start()
    yield scheduler
    scheduler.stop()


def test_scheduler_requires_start():
    scheduler = AsyncioScheduler()
    with pytest.raises(SimulationError, match="not started"):
        scheduler.schedule(1.0, lambda: None)


def test_scheduler_fires_in_delay_order(sched):
    order = []
    sched.schedule(6.0, lambda: order.append("late"))
    sched.schedule(2.0, lambda: order.append("early"))
    sched.run()
    assert order == ["early", "late"]
    assert sched.events_fired == 2
    assert sched.pending == 0


def test_scheduler_cancel_prevents_firing_and_settles(sched):
    fired = []
    keep = sched.schedule(2.0, lambda: fired.append("keep"))
    drop = sched.schedule(2.0, lambda: fired.append("drop"))
    drop.cancel()
    drop.cancel()  # idempotent
    sched.run()
    assert fired == ["keep"]
    assert drop.cancelled and not keep.cancelled
    assert sched.pending == 0


def test_scheduler_recurring_respects_horizon(sched):
    ticks = []
    sched.schedule_recurring(2.0, lambda: ticks.append(sched.now), until=9.0)
    sched.run()
    assert len(ticks) == 4  # t=2,4,6,8; the next (10) exceeds the horizon
    with pytest.raises(SimulationError, match="horizon"):
        sched.schedule_recurring(5.0, lambda: None, until=sched.now + 1.0)


def test_scheduler_recurring_cancel_stops_chain(sched):
    count = [0]

    def bump():
        count[0] += 1

    chain = sched.schedule_recurring(1.0, bump, until=10_000.0)
    sched.run(until=3.5)
    chain.cancel()
    seen = count[0]
    time.sleep(0.05)
    assert count[0] == seen
    assert sched.pending == 0


def test_scheduler_cross_thread_invoke_and_errors(sched):
    # invoke marshals onto the loop thread and relays return values...
    loop_thread = sched.invoke(threading.get_ident)
    assert loop_thread != threading.get_ident()
    # ...and exceptions raised by scheduled callbacks surface in check().
    def boom():
        raise ValueError("kaboom")

    sched.schedule(0.5, boom, label="boom-test")
    with pytest.raises(SimulationError, match="boom-test"):
        sched.run()
    sched.errors.clear()


def test_scheduler_clock_advances_in_ticks(sched):
    before = sched.now
    sched.run(until=before + 4.0)
    assert sched.now >= before + 4.0
    # 4 ticks at 5ms/tick is 20ms; a generous upper bound guards
    # against unit confusion (seconds vs ticks), not scheduler jitter.
    assert sched.now < before + 400.0


# ---------------------------------------------------------------------------
# TCP mesh end-to-end


def build_db(**kwargs):
    db = FragmentedDatabase(
        ["A", "B", "C"], runtime="asyncio", tick=0.005, **kwargs
    )
    db.add_agent("ag", home_node="A")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()
    return db


def test_tcp_mesh_commit_replicates_over_real_sockets():
    db = build_db()
    with db:
        def body(_ctx):
            yield Write("x", 41)

        tracker = db.call_on_runtime(
            lambda: db.submit_update("ag", body, writes=["x"])
        )
        assert db.wait_until(lambda: tracker.succeeded, timeout=15.0), (
            tracker.status, tracker.reason,
        )
        assert db.wait_until(
            lambda: all(
                db.nodes[n].store.read_version("x").value == 41
                for n in "ABC"
            ),
            timeout=15.0,
        )
        assert db.metrics.value("tcp.frames_sent") > 0
        assert db.metrics.value("tcp.frames_received") > 0
    db.sim.check()


def test_tcp_mesh_hard_kill_failover_recommits():
    db = FragmentedDatabase(
        ["A", "B", "C", "D", "E"],
        runtime="asyncio",
        tick=0.005,
        replication_factor=3,
        availability=AvailabilityConfig(),
    )
    db.add_agent("ag", home_node="A")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()

    def setter(value):
        def body(_ctx):
            yield Write("x", value)

        return body

    with db:
        db.call_on_runtime(lambda: db.availability.start(until=1e9))
        first = db.call_on_runtime(
            lambda: db.submit_update("ag", setter(1), writes=["x"])
        )
        assert db.wait_until(lambda: first.succeeded, timeout=15.0)

        db.call_on_runtime(lambda: db.hard_kill_node("A"))
        # Hard kill: crash behind down_guard, topology untouched.  The
        # supervisor must detect via missed heartbeats and re-home the
        # agent; a client retry loop then lands the write at the new home.
        deadline = time.monotonic() + 30.0
        tracker = None
        while time.monotonic() < deadline:
            tracker = db.call_on_runtime(
                lambda: db.submit_update("ag", setter(2), writes=["x"])
            )
            db.wait_until(
                lambda: tracker.status.value != "pending", timeout=10.0
            )
            if tracker.succeeded:
                break
            time.sleep(0.05)
        assert tracker is not None and tracker.succeeded
        assert db.agents["ag"].home_node != "A"
        assert db.metrics.value("avail.failovers") >= 1
        # The dead node's guard refused delivery before the transport
        # could ack (a dead process never acknowledges).
        assert db.metrics.value("tcp.frames_dropped_down") > 0
    db.sim.check()


# ---------------------------------------------------------------------------
# TCP mesh: hostile bytes on the socket, teardown under traffic


def start_mesh(sched, **kwargs):
    net = TcpMeshNetwork(sched, Topology.full_mesh(["A", "B"]), **kwargs)
    received = []
    net.register("A", lambda m: None)
    net.register("B", received.append)
    net.start()
    return net, received


def framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def assert_closed_by_peer(conn: socket.socket) -> None:
    conn.settimeout(5.0)
    assert conn.recv(1) == b""


def test_oversized_length_prefix_closes_the_connection(sched):
    net, received = start_mesh(sched)
    try:
        with socket.create_connection(("127.0.0.1", net.port_of("B"))) as conn:
            conn.sendall((MAX_FRAME + 1).to_bytes(4, "big") + b"x" * 64)
            assert_closed_by_peer(conn)
        assert net.metrics.value("tcp.frames_undecodable") == 1
        sched.invoke(lambda: net.send("A", "B", "ping", 1))
        assert sched.wait_until(lambda: len(received) == 1, timeout=10.0)
    finally:
        net.stop()


def test_malformed_frames_are_counted_and_skipped(sched):
    net, received = start_mesh(sched)
    try:
        with socket.create_connection(("127.0.0.1", net.port_of("B"))) as conn:
            conn.sendall(framed(MALFORMED_BODIES["missing payload"]))
            conn.sendall(framed(MALFORMED_BODIES["unknown tag"]))
            conn.sendall(framed(frame_body(dst="nobody")))
            # The connection survived all three: a good frame delivers.
            conn.sendall(framed(frame_body(payload="ok")))
            assert sched.wait_until(lambda: len(received) == 1, timeout=10.0)
            # A frame the peer never finishes ends the reader task.
            conn.sendall((100).to_bytes(4, "big") + b"short")
        assert sched.wait_until(
            lambda: net.metrics.value("tcp.frames_undecodable") == 4,
            timeout=10.0,
        )
        assert received[0].payload == "ok"
        sched.invoke(lambda: net.send("A", "B", "ping", 1))
        assert sched.wait_until(lambda: len(received) == 2, timeout=10.0)
    finally:
        net.stop()
    sched.check()


def test_stop_under_retransmit_traffic_leaves_no_pending_task(sched):
    net, received = start_mesh(sched)

    def resend():
        # What a retransmit timer does, re-armed every loop iteration
        # so it is certain to fire between the awaits of the teardown.
        if net._started:
            net.send("A", "B", "ping", 0)
            net.send("B", "A", "ping", 0)
            sched.schedule(0.0, resend)

    sched.schedule(0.0, resend)
    assert sched.wait_until(lambda: len(received) >= 3, timeout=10.0)
    net.stop()
    leaked = sched.invoke(
        lambda: [t for t in asyncio.all_tasks() if not t.done()]
    )
    assert leaked == []
    assert net._senders == {} and net._queues == {}
    assert net.metrics.value("tcp.frames_lost") > 0  # refused, and counted
    sched.check()


# ---------------------------------------------------------------------------
# The FaultPlan on real sockets


def test_fault_plan_loss_and_duplication_on_real_sockets(sched):
    # The simulator's injector, unchanged, in front of put_on_wire: a
    # dropped frame never reaches the socket, a duplicate is written
    # twice, and the reliable transport hands each send over once.
    net = TcpMeshNetwork(sched, Topology.full_mesh(["A", "B"]))
    FaultInjector(net, FaultPlan(loss_rate=0.2, dup_rate=0.2), SeededRng(1))
    transport = ReliableTransport(net)
    received = []
    net.register("A", lambda m: None)
    net.register("B", lambda m: received.append(m.payload))
    net.start()
    try:
        sched.invoke(lambda: [net.send("A", "B", "m", i) for i in range(200)])
        assert sched.wait_until(
            lambda: transport.unacked_count() == 0, timeout=30.0
        )
        assert received == list(range(200))
        assert net.metrics.value("fault.messages_dropped") > 0
        assert net.metrics.value("retrans.duplicates_dropped") > 0
    finally:
        net.stop()
    sched.check()


def test_fault_plan_schedule_arms_when_the_runtime_starts():
    # Constructing this used to raise "runtime not started": only the
    # plan's crashes waited for the loop, not its flaps or partitions.
    db = build_db(faults=FaultPlan(flaps=[LinkFlap(20.0, "A", "B", 100.0)]))
    link = db.topology.link("A", "B")
    with db:
        assert db.wait_until(lambda: not link.up, timeout=10.0)
        assert db.wait_until(lambda: link.up, timeout=10.0)
    assert db.metrics.value("fault.flaps") == 1
    db.sim.check()


def test_fault_plan_jitter_requires_the_sim_runtime():
    # The wire supplies the latency on real sockets: jitter would be a
    # fault the plan claims and the run never suffers.
    with pytest.raises(DesignError, match="jitter"):
        FragmentedDatabase(
            ["A", "B"], runtime="asyncio", faults=FaultPlan(jitter=1.0)
        )


def test_the_nemesis_kills_a_fixed_agents_home_on_real_sockets():
    """The chaos driver on asyncio: a socket-level kill of the served
    protocol's agent home is carried by a supervisor failover, and the
    run keeps its guarantee row (MC, FW) with a clean audit."""
    from repro.analysis.nemesis import NemesisConfig, run_nemesis

    config = NemesisConfig(
        loss_rate=0.0, dup_rate=0.0, jitter=0.0, n_partitions=0,
        n_agent_kills=1, failover=True,
    )
    result = run_nemesis(0, "fixed-agents", config, backend="asyncio")
    assert result.mutually_consistent and result.fragmentwise, result
    assert result.audit_ok, result.audit_first
    assert result.failovers >= 1
    assert result.respects_guarantees()


def test_quiesce_on_asyncio_waits_for_acknowledged_delivery():
    def body(_ctx):
        yield Write("x", 7)

    db = build_db()
    with db:
        tracker = db.call_on_runtime(
            lambda: db.submit_update("ag", body, writes=["x"])
        )
        db.quiesce()
        assert tracker.succeeded
        assert db.call_on_runtime(
            lambda: (db.sim.pending, db.network.outbox_depth(),
                     db.transport.unacked_count())
        ) == (0, 0, 0)
        assert all(
            db.nodes[n].store.read_version("x").value == 7 for n in "ABC"
        )


def test_quiesce_on_asyncio_fails_loudly_when_timers_never_drain(
    monkeypatch,
):
    from repro.core import system

    monkeypatch.setattr(system, "LIVE_QUIESCE_TIMEOUT", 0.3)
    db = build_db(availability=AvailabilityConfig())
    with db:
        db.call_on_runtime(lambda: db.availability.start(until=1e9))
        with pytest.raises(SimulationError, match="not quiescent"):
            db.quiesce()


# ---------------------------------------------------------------------------
# Backend conformance: both backends satisfy the declared runtime seam


class SimBackend:
    def __init__(self):
        self.sim = Simulator()

    def network(self, topology):
        return Network(self.sim, topology)

    def on_runtime(self, fn):
        return fn()

    def settle(self, predicate):
        # A tick at a time, so a script can stop short of a timer.
        for _ in range(50):
            if predicate():
                return True
            self.sim.run(until=self.sim.now + 1.0)
        return predicate()

    def close(self):
        pass


class AsyncioBackend:
    def __init__(self):
        self.sim = AsyncioScheduler(tick=0.005)
        self.sim.start()
        self.net = None

    def network(self, topology):
        self.net = TcpMeshNetwork(self.sim, topology)
        return self.net

    def on_runtime(self, fn):
        return self.sim.invoke(fn)

    def settle(self, predicate):
        return self.sim.wait_until(predicate, timeout=10.0)

    def close(self):
        if self.net is not None:
            self.net.stop()
        self.sim.stop()


@pytest.fixture(params=[SimBackend, AsyncioBackend])
def backend(request):
    instance = request.param()
    yield instance
    instance.close()


def test_scheduler_conformance(backend):
    sim = backend.sim
    assert isinstance(sim, SchedulerProtocol)
    order = []
    late = sim.schedule(6.0, lambda: order.append("late"))
    sim.schedule_at(sim.now + 2.0, lambda: order.append("early"))
    dropped = sim.schedule(1.0, lambda: order.append("dropped"))
    assert isinstance(late, CancellableHandle)
    dropped.cancel()
    sim.run()
    assert order == ["early", "late"]
    assert sim.pending == 0 and sim.events_fired == 2
    ticks = []
    sim.schedule_recurring(
        2.0, lambda: ticks.append(sim.now), until=sim.now + 5.0
    )
    sim.run()
    assert len(ticks) == 2


def test_transport_conformance(backend):
    topology = Topology.full_mesh(["A", "B"])
    received = []
    net = backend.network(topology)
    assert isinstance(net, TransportProtocol)
    net.register("A", lambda m: None)
    net.register("B", lambda m: received.append(m.payload))
    if isinstance(net, TcpMeshNetwork):
        net.start()

    def burst(start):
        for i in range(start, start + 5):
            net.send("A", "B", "m", i)

    backend.on_runtime(lambda: burst(0))
    assert backend.settle(lambda: received == [0, 1, 2, 3, 4])

    link = topology.link("A", "B")

    def cut_and_send():
        net.change_links(hold=[(link, "cut")])
        burst(5)

    backend.on_runtime(cut_and_send)
    assert backend.settle(lambda: net.held_count() == 5)
    assert received == [0, 1, 2, 3, 4]  # held, not lost, not delivered

    def heal():
        net.change_links(release=[(link, "cut")])

    backend.on_runtime(heal)
    assert backend.settle(lambda: received == list(range(10)))
    assert net.held_count() == 0

    # The mixed case, under the reliable transport.  Arrivals, acks
    # included, are taken off the wire here and let through by the
    # script, and no timeout is short while the channel is connected,
    # so on real sockets no wall-clock race decides which side of the
    # cut or the heal a message lands on or whether a timer beats an ack.
    patient = ReliableConfig(base_rto=2000.0, max_rto=2000.0)
    transport = ReliableTransport(net, patient)
    arrive = net._deliver
    wire = []
    net._deliver = wire.append

    def arrivals(count):
        for _ in range(count):
            arrive(wire.pop(0))

    def value(name):
        return net.metrics.value(name)

    frames_sent = net.metrics.counter("tcp.frames_sent")
    backend.on_runtime(lambda: burst(10))
    assert backend.settle(lambda: len(wire) == 5)  # 10..14 crossed

    def cut_arrive_and_send():
        # Two holders on the one link, as when a flap overlaps a crash.
        net.change_links(hold=[(link, "cut"), (link, "second holder")])
        arrivals(2)  # 10, 11 arrive during the cut
        # Sent during the cut, and timed out almost at once: parked.
        transport.config = ReliableConfig(base_rto=2.0)
        net.send("A", "B", "m", 15)
        net.send("A", "B", "m", 16)
        transport.config = patient

    backend.on_runtime(cut_arrive_and_send)
    assert net.held_count() == 4 and len(wire) == 3
    assert received == list(range(10))
    assert backend.settle(lambda: value("retrans.paused") == 2)
    sent_before_heal = frames_sent.value
    backend.on_runtime(heal)
    # The first release resumes nothing: someone still holds the link.
    assert not link.up and net.held_count() == 4
    assert received == list(range(10))
    assert frames_sent.value == sent_before_heal
    backend.on_runtime(
        lambda: net.change_links(release=[(link, "second holder")])
    )
    # Stopped arrivals are handed over at once; they are not re-sent.
    assert received == list(range(12))
    assert net.held_count() == 0
    # 12..14, then 15, 16, and on their own channel the acks of 10, 11.
    assert backend.settle(lambda: len(wire) == 7)
    if isinstance(net, TcpMeshNetwork):
        assert frames_sent.value - sent_before_heal == 4
    backend.on_runtime(lambda: arrivals(7))  # 12..14 arrive after the heal
    assert received == list(range(17))
    assert backend.settle(lambda: len(wire) == 5)  # the acks of 12..16
    backend.on_runtime(lambda: arrivals(5))
    # The heal woke the parked timers and cost nothing else.
    assert transport.unacked_count() == 0
    assert value("retrans.resent") == 0
    assert value("retrans.duplicates_dropped") == 0
    assert value("retrans.paused") == 2


# ---------------------------------------------------------------------------
# Determinism: no wall-clock leakage into simulator scheduling


def test_sim_backend_is_still_deterministic():
    # Satellite check for the Clock refactor: the only sanctioned
    # real-clock read in simulator-backed analysis code is the
    # wall_clock() timing wrapper in scale_bench, which never feeds
    # back into scheduling.  Two identical runs must produce identical
    # schedules — same final-state hash, same event count.
    from repro.analysis.scale_bench import run_side

    a = run_side(nodes=8, updates=30)
    b = run_side(nodes=8, updates=30)
    assert a.state == b.state
    assert a.events_fired == b.events_fired
    assert a.committed == b.committed
