"""HTTP front door tests: routing, failover wake-ups, errors, metrics.

Each test boots a real asyncio-backed database with a FrontDoor and
speaks actual HTTP to it — the same path `repro serve` exposes.
"""

import asyncio
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import MoveWithSeqnoProtocol
from repro.analysis.audit import audit_events
from repro.availability import AvailabilityConfig
from repro.core.system import FragmentedDatabase
from repro.core.transaction import (
    RefusalCause,
    RequestStatus,
    RequestTracker,
    TransactionSpec,
)
from repro.serve import FrontDoor
from repro.obs.dashboard import MAX_BODY_BYTES, MAX_HEAD_BYTES


def build_db(availability=True, nodes=5, movement=None, tick=0.005):
    names = [chr(ord("A") + i) for i in range(nodes)]
    db = FragmentedDatabase(
        names,
        runtime="asyncio",
        tick=tick,
        replication_factor=3,
        availability=AvailabilityConfig() if availability else None,
        movement=movement,
    )
    db.add_agent("ag0", home_node="A")
    db.add_fragment("F0", agent="ag0", objects=["x"])
    db.add_agent("ag1", home_node="B")
    db.add_fragment("F1", agent="ag1", objects=["y"])
    db.load({"x": 0, "y": 0})
    db.finalize()
    db.enable_tracing()
    return db


@pytest.fixture
def served():
    db = build_db()
    db.start_runtime()
    db.call_on_runtime(lambda: db.availability.start(until=1e9))
    door = FrontDoor(db, deadline=30.0).start()
    yield db, door
    door.stop()
    db.stop_runtime()
    db.sim.check()


def post(base, path, payload, timeout=35.0):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode()
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(base, path, timeout=35.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def test_routes_write_to_agent_home(served):
    db, door = served
    code, body = post(door.url, "/updates", {"object": "x", "value": 11})
    assert code == 200, body
    assert body["status"] == "committed"
    assert body["fragment"] == "F0"
    assert body["node"] == "A"  # the agent's home, not the HTTP host
    code, body = post(door.url, "/updates", {"object": "y", "delta": 4})
    assert code == 200, body
    assert body["node"] == "B"  # different fragment, different home


def test_read_local_and_via_quorum(served):
    db, door = served
    post(door.url, "/updates", {"object": "x", "value": 23})
    code, body = post(door.url, "/reads", {"object": "x"})
    assert code == 200 and body["value"] == 23
    # E does not replicate F0 (k=3 of 5): the declared read routes
    # through the quorum-read version vote before the body runs.
    code, body = post(door.url, "/reads", {"object": "x", "at": "E"})
    assert code == 200, body
    assert body["value"] == 23
    assert body["node"] == "E"


def test_client_errors(served):
    db, door = served
    code, body = post(door.url, "/updates", {"object": "zzz", "value": 1})
    assert code == 404 and "no fragment" in body["error"]
    code, body = post(door.url, "/updates", {"object": "x"})
    assert code == 400
    code, body = post(door.url, "/updates", {"value": 1})
    assert code == 400
    code, body = post(door.url, "/reads", {"object": "x", "at": "NOPE"})
    assert code == 404
    code, body = post(door.url, "/nope", {})
    assert code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(door.url + "/nope", timeout=10)
    assert excinfo.value.code == 404
    excinfo.value.close()


def assert_x_not_wedged(db, door):
    """The next write and read of ``x`` answer, and nothing is left
    holding a lock at x's home."""
    code, body = post(door.url, "/updates", {"object": "x", "value": 7}, 10)
    assert code == 200, body
    code, body = post(door.url, "/reads", {"object": "x"}, 10)
    assert code == 200 and body["value"] == 7, body
    scheduler = db.nodes["A"].scheduler
    assert not scheduler.active
    assert scheduler.locks.holders_of("x") == {}
    assert scheduler.locks.queued_for("x") == []


@pytest.mark.parametrize(
    "extra",
    [
        {"delta": "one"},
        {"delta": None},
        {"delta": True},
        {"delta": 1, "deadline": "soon"},
        {"delta": 1, "deadline": None},
        {"value": 1, "deadline": float("inf")},
        {"value": 1, "deadline": 1e300},
        {"delta": 10**400},
    ],
)
def test_malformed_write_is_refused_with_400(served, extra):
    db, door = served
    code, body = post(door.url, "/updates", {"object": "x", **extra}, 10)
    assert code == 400 and "error" in body, body
    assert_x_not_wedged(db, door)


def test_failing_body_aborts_instead_of_wedging_the_object(served):
    db, door = served
    post(door.url, "/updates", {"object": "x", "value": "text"}, 10)
    # A well-formed delta against a non-numeric value: the body raises
    # inside the scheduler, which must abort it, not leak its S lock.
    code, body = post(door.url, "/updates", {"object": "x", "delta": 1}, 10)
    assert code == 409 and body["status"] == "aborted", body
    assert body["reason"].startswith("TypeError: ")
    assert_x_not_wedged(db, door)


def test_retry_follows_the_cause_not_the_reason_text(served):
    db, door = served
    real_submit = db.submit_update
    refusals = []

    def refuse_once(agent, body, on_done=None, **kwargs):
        if refusals:
            return real_submit(agent, body, on_done=on_done, **kwargs)
        spec = TransactionSpec(txn_id="TREF", agent=agent, body=body)
        tracker = RequestTracker(spec, db.sim.now, "A", on_done=on_done)
        refusals.append(tracker)
        tracker.finish(
            RequestStatus.REJECTED,
            db.sim.now,
            reason="try again shortly",
            cause=RefusalCause.HOME_DOWN,
        )
        # The refusal ends at once: its waiter is already registered.
        db.wake_refused()
        return tracker

    db.submit_update = refuse_once
    code, body = post(door.url, "/updates", {"object": "x", "value": 1})
    assert code == 200, body
    assert body["attempts"] == 2
    assert db.metrics.value("http.updates_retried") == 1


def test_terminal_rejection_maps_to_409(served):
    db, door = served

    def rejecting_submit(agent, body, on_done=None, **kwargs):
        spec = TransactionSpec(txn_id="TREJ", agent=agent, body=body)
        tracker = RequestTracker(spec, db.sim.now, "A", on_done=on_done)
        tracker.finish(
            RequestStatus.REJECTED, db.sim.now, reason="backpressure limit"
        )
        return tracker

    db.submit_update = rejecting_submit
    code, body = post(door.url, "/updates", {"object": "x", "value": 1})
    assert code == 409
    assert body["reason"] == "backpressure limit"
    assert body["attempts"] == 1  # non-transient: no retry loop


def count_wakes(db):
    """Record the fragment of every refusal wake that fires."""
    woken = []
    register = db.on_refusal_end

    def counting(fragment, wake):
        def counted():
            woken.append(fragment)
            wake()

        register(fragment, counted)

    db.on_refusal_end = counting
    return woken


def test_kill_plus_failover_queue_and_retry(served):
    db, door = served
    code, _ = post(door.url, "/updates", {"object": "x", "value": 1})
    assert code == 200
    woken = count_wakes(db)
    db.call_on_runtime(lambda: db.hard_kill_node("A"))
    # The write arrives mid-outage: the gate rejects transiently, the
    # front door queues it until the supervisor's token lands at the
    # new home, and the one retry that wake releases returns 200 there.
    code, body = post(door.url, "/updates", {"object": "x", "value": 2})
    assert code == 200, body
    assert body["attempts"] == 2
    assert body["node"] != "A"
    assert woken == ["F0"]
    assert db.metrics.value("http.updates_retried") == len(woken)
    assert db.metrics.value("avail.failovers") >= 1
    # Location transparency: /fragments now reports the new home.
    _, frags = get(door.url, "/fragments")
    assert frags["fragments"]["F0"]["home"] == body["node"]
    assert frags["nodes"]["A"]["down"] is True
    # The captured live trace passes the §4.4 audit.
    report = audit_events(e.as_dict() for e in db.tracer.events())
    assert report.ok, report.checks


def test_a_refusal_nothing_ends_answers_504_at_its_deadline():
    """The supervisor is configured but never started, so nothing will
    re-home the dead home's agent: the queued write submits once, waits
    without polling, and answers 504 when its own deadline passes."""
    db = build_db()
    db.start_runtime()
    door = FrontDoor(db)  # not started: submit_write without HTTP
    try:
        db.call_on_runtime(lambda: db.hard_kill_node("A"))
        started = time.monotonic()
        code, body = door.submit_write(
            {"object": "x", "delta": 1, "deadline": 0.5}
        )
        assert time.monotonic() - started >= 0.5
        assert code == 504, body
        assert body["status"] == "rejected" and body["attempts"] == 1
        assert db.metrics.value("txn.submitted") == 1
        assert db.metrics.value("http.updates_retried") == 0
        assert db.metrics.value("http.updates_timeout") == 1
    finally:
        db.stop_runtime()
    db.sim.check()


def test_a_write_refused_in_transit_resumes_at_the_arrival():
    db = build_db(availability=False, movement=MoveWithSeqnoProtocol())
    db.start_runtime()
    door = FrontDoor(db)
    woken = count_wakes(db)
    dest = next(name for name in db.replica_set("F0") if name != "A")
    arrived = threading.Event()
    try:
        db.call_on_runtime(
            lambda: db.move_agent(
                "ag0", dest, transport_delay=40.0, on_done=arrived.set
            )
        )
        code, body = door.submit_write({"object": "x", "delta": 1})
        assert code == 200, body
        # Refused on the road, woken by the landing, committed there.
        assert arrived.is_set()
        assert body["attempts"] == 2 and body["node"] == dest
        assert woken == ["F0"]
        assert db.metrics.value("http.updates_retried") == 1
    finally:
        db.stop_runtime()
    db.sim.check()


def test_metrics_endpoint_matches_registry(served):
    db, door = served
    post(door.url, "/updates", {"object": "x", "value": 5})
    _, payload = get(door.url, "/metrics")
    snapshot = db.metrics.snapshot()
    assert payload["counters"]["http.updates_committed"] == 1
    # Monotonic counters can only have advanced between the HTTP read
    # and the direct snapshot; spot-check stable ones exactly.
    for name in ("http.updates_committed", "txn.committed"):
        if name in snapshot["counters"]:
            assert payload["counters"][name] == snapshot["counters"][name]
    assert set(payload) == {"counters", "gauges", "histograms"}


def test_updates_and_dashboard_endpoints(served):
    db, door = served
    post(door.url, "/updates", {"object": "x", "value": 9})
    _, listing = get(door.url, "/updates")
    assert listing["count"] >= 1
    statuses = {u["txn"]: u["status"] for u in listing["updates"]}
    assert "committed" in statuses.values()
    _, data = get(door.url, "/data.json")
    assert {"meta", "series", "spans"} <= set(data)
    with urllib.request.urlopen(door.url + "/", timeout=10) as response:
        page = response.read()
    assert b"<" in page and b"repro serve" in page
    _, health = get(door.url, "/healthz")
    assert health["ok"] is True


def test_sse_pings_on_new_trace_events(served):
    db, door = served
    door.sse_poll_interval = 0.05
    door.sse_max_pings = 1
    with urllib.request.urlopen(door.url + "/events", timeout=10) as stream:
        time.sleep(0.1)
        post(door.url, "/updates", {"object": "x", "value": 3})
        line = stream.readline()
        assert line.strip() == b"data: grew"


def test_keep_alive_writes_are_not_paced_by_delayed_ack(served):
    """The 40 ms stall: headers and body sent as two segments on a
    Nagle socket made every reply on a keep-alive connection wait for
    the client's delayed ACK (50 writes took 2.2 s; they take < 0.2 s)."""
    db, door = served
    conn = http.client.HTTPConnection("127.0.0.1", door.port, timeout=10)
    body = json.dumps({"object": "x", "delta": 1})
    try:
        started = time.perf_counter()
        for _ in range(50):
            conn.request("POST", "/updates", body)
            response = conn.getresponse()
            assert response.status == 200, response.read()
            response.read()
        elapsed = time.perf_counter() - started
    finally:
        conn.close()
    assert elapsed < 1.0, elapsed


def test_each_reply_is_one_send_on_a_nodelay_socket(served, monkeypatch):
    db, door = served
    nodelay, sends = {}, []
    transport_type = asyncio.selector_events._SelectorSocketTransport
    write = transport_type.write

    def counting_write(transport, data):
        if transport.get_extra_info("sockname")[1] == door.port:
            sends.append(len(data))
            nodelay[id(transport)] = transport.get_extra_info(
                "socket"
            ).getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        return write(transport, data)

    monkeypatch.setattr(transport_type, "write", counting_write)
    conn = http.client.HTTPConnection("127.0.0.1", door.port, timeout=10)
    try:
        for method, path, body, status in (
            ("POST", "/updates", {"object": "x", "delta": 1}, 200),  # JSON
            ("GET", "/", None, 200),  # HTML, far larger than one buffer
            ("POST", "/updates", {"object": "nope", "delta": 1}, 404),
            ("POST", "/updates", {"object": "x"}, 400),
        ):
            before = len(sends)
            conn.request(method, path, body and json.dumps(body))
            response = conn.getresponse()
            payload = response.read()
            assert response.status == status, payload
            assert len(sends) - before == 1, (path, status, sends[before:])
            assert sends[-1] > len(payload)  # headers rode along
    finally:
        conn.close()
    assert list(nodelay.values()) == [1]


def test_overload_returns_503():
    db = build_db(availability=False)
    db.start_runtime()
    door = FrontDoor(db, max_queued=1).start()
    try:
        # Saturate the single admission slot from inside, then observe
        # the next HTTP write bounce with 503.
        db.call_on_runtime(lambda: setattr(door, "_queued", 1))
        code, body = post(door.url, "/updates", {"object": "x", "value": 1})
        assert code == 503
        assert db.metrics.value("http.updates_overload") == 1
        db.call_on_runtime(lambda: setattr(door, "_queued", 0))
        code, _ = post(door.url, "/updates", {"object": "x", "value": 1})
        assert code == 200
    finally:
        door.stop()
        db.stop_runtime()
    db.sim.check()


# ---------------------------------------------------------------------------
# Hostile and edge-case HTTP: a loud answer, never a hang


def exchange(door, *chunks, pause=0.0):
    """Send ``chunks`` on one raw connection and read until the server
    closes it (a timeout fails the test); returns ``(status, headers,
    body)`` per reply, in the order they came."""
    with socket.create_connection(("127.0.0.1", door.port), 10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for chunk in chunks:
            sock.sendall(chunk)
            time.sleep(pause)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    replies = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        length = int(headers["Content-Length"])
        body = json.loads(rest[:length])
        replies.append((int(lines[0].split()[1]), headers, body))
        data = rest[length:]
    return replies


def request(method, path, payload=None, extra=""):
    body = b"" if payload is None else json.dumps(payload).encode()
    head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
    return (head + extra + "\r\n").encode() + body


def test_pipelined_requests_are_answered_in_order(served):
    db, door = served
    replies = exchange(
        door,
        request("POST", "/updates", {"object": "x", "value": 41})
        + request("POST", "/reads", {"object": "x"}, "Connection: close\r\n"),
    )
    assert [code for code, _, _ in replies] == [200, 200], replies
    assert replies[0][2]["status"] == "committed"
    assert replies[1][2]["value"] == 41  # answered after the write
    assert replies[1][1]["Connection"] == "close"


def test_a_request_sent_one_byte_at_a_time_is_answered(served):
    db, door = served
    data = request(
        "POST", "/updates", {"object": "y", "delta": 2}, "Connection: close\r\n"
    )
    replies = exchange(
        door, *(data[i:i + 1] for i in range(len(data))), pause=0.001
    )
    assert [(code, body["status"]) for code, _, body in replies] == [
        (200, "committed")
    ]


@pytest.mark.parametrize(
    "data, code",
    [
        (b"POST /updates HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", 413),
        (b"POST /updates HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
        (b"POST /updates HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES, 431),
        (b"GET /healthz\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
    ],
)
def test_unframeable_input_is_refused_and_the_connection_closed(
    served, data, code
):
    db, door = served
    replies = exchange(door, data)  # returns only once the server closed
    assert [reply[0] for reply in replies] == [code], replies
    assert replies[0][1]["Connection"] == "close"
    assert "error" in replies[0][2]
    assert_x_not_wedged(db, door)


def test_a_body_streamed_after_its_413_does_not_reset_the_reply(served):
    """The server answers 413 on the head alone; the client streams the
    body on.  Closing with those bytes unread would answer them with a
    reset that can destroy the 413 before the client reads it."""
    db, door = served
    body = b"x" * (2 * MAX_BODY_BYTES)
    head = b"POST /updates HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
    replies = exchange(door, head, *(body[i:i + 65536] for i in range(0, len(body), 65536)))
    assert [reply[0] for reply in replies] == [413], replies


@pytest.mark.parametrize(
    "data",
    [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ],
)
def test_close_and_http10_requests_close_after_the_reply(served, data):
    db, door = served
    replies = exchange(door, data)  # returns only once the server closed
    assert [(code, body["ok"]) for code, _, body in replies] == [(200, True)]


@pytest.mark.parametrize("half", [False, True], ids=["close", "half-close"])
def test_a_client_hanging_up_frees_its_queued_write(half):
    """Nothing will end this refusal (the supervisor never starts): the
    write waits behind it until the client hangs up, and then gives its
    admission slot back at once, not at its 30 s deadline.  A half-close
    counts as a hang-up: the server closes without a reply."""
    db = build_db()
    db.start_runtime()
    door = FrontDoor(db).start()
    try:
        db.call_on_runtime(lambda: db.hard_kill_node("A"))
        with socket.create_connection(("127.0.0.1", door.port), 10) as sock:
            sock.sendall(request("POST", "/updates", {"object": "x", "delta": 1}))
            assert db.wait_until(lambda: door._queued == 1, timeout=10.0)
            if half:
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(1024) == b""
        assert db.wait_until(lambda: door._queued == 0, timeout=5.0)
        assert db.metrics.value("txn.rejected") == 1
        assert db.metrics.value("http.updates_timeout") == 0
    finally:
        door.stop()
        db.stop_runtime()
    db.sim.check()


def test_dashboard_pages_do_not_stall_the_loop():
    """A full ring takes ~100 ms to render: two heartbeat periods at the
    benchmark's tick (0.01 s, the one this test runs at).  Five renders
    back to back during a write stream must not look like a dead home
    to the supervisor.  The executor thread still takes the interpreter
    lock in 5 ms slices, so at half this tick under ``-X dev`` a pong
    can still miss its deadline."""
    from repro.obs.trace import LIVE_RING_SIZE

    db = build_db(tick=0.01)
    db.start_runtime()
    door = FrontDoor(db).start()
    try:
        for i in range(LIVE_RING_SIZE // 2):
            db.tracer.emit("span.begin", txn=f"S{i}", agent="ag0", node="A")
            db.tracer.emit("span.end", txn=f"S{i}", status="committed")
        assert len(db.tracer) == LIVE_RING_SIZE
        db.call_on_runtime(lambda: db.availability.start(until=1e9))
        stop, codes = threading.Event(), []

        def write_stream():
            conn = http.client.HTTPConnection("127.0.0.1", door.port, timeout=10)
            body = json.dumps({"object": "x", "delta": 1})
            while not stop.is_set():
                conn.request("POST", "/updates", body)
                response = conn.getresponse()
                response.read()
                codes.append(response.status)
            conn.close()

        writer = threading.Thread(target=write_stream)
        writer.start()
        try:
            time.sleep(0.2)
            for _ in range(5):
                with urllib.request.urlopen(door.url + "/", timeout=10) as page:
                    assert page.status == 200 and b"repro serve" in page.read()
            time.sleep(0.2)
        finally:
            stop.set()
            writer.join(timeout=10.0)
        assert not writer.is_alive()
        assert codes and set(codes) == {200}, codes
        assert db.metrics.value("avail.failovers") == 0
    finally:
        door.stop()
        db.stop_runtime()
    db.sim.check()


def test_stop_leaves_no_task_or_transport_behind():
    db = build_db(availability=False)
    db.start_runtime()
    door = FrontDoor(db, sse_poll_interval=0.05).start()
    idle = http.client.HTTPConnection("127.0.0.1", door.port, timeout=10)
    stream = urllib.request.urlopen(door.url + "/events", timeout=10)
    try:
        idle.request("GET", "/healthz")
        assert idle.getresponse().read()
        server = door._http
        assert db.call_on_runtime(lambda: len(server.connections)) == 2
        door.stop()

        def front_door_tasks():
            return [
                t for t in asyncio.all_tasks()
                if "HttpServer" in t.get_coro().__qualname__
            ]

        assert db.call_on_runtime(front_door_tasks) == []
        assert server.connections == set()
        assert stream.read() == b""  # the server closed the stream
        door.stop()  # twice
        late = FrontDoor(db).start()
        db.stop_runtime()
        late.stop()  # after the runtime
        late.stop()
    finally:
        idle.close()
        stream.close()
    db.sim.check()


# ---------------------------------------------------------------------------
# What a served system retains is bounded by configuration, not uptime


def retained(db):
    """Sizes of everything a write leaves behind, read on the loop."""

    def read():
        gauges = db.metrics.snapshot()["gauges"]
        return {
            "wal": sum(len(node.wal) for node in db.nodes.values()),
            "archive": gauges["recovery.archive_entries"],
            "buffer": gauges["recovery.buffer_entries"],
            "trackers": len(db.trackers),
            "history": len(db.recorder.committed) + len(db.recorder.installs),
            "ring": len(db.tracer),
        }

    return db.call_on_runtime(read)


def test_retention_is_flat_across_3000_writes_and_a_kill():
    from repro.core.system import LIVE_CHECKPOINT_EVERY, LIVE_WINDOW
    from repro.obs.trace import LIVE_RING_SIZE

    db = build_db()
    assert db.recovery.config.checkpoint_every == LIVE_CHECKPOINT_EVERY
    db.start_runtime()
    db.call_on_runtime(lambda: db.availability.start(until=1e9))
    # Not started: submit_write is the queue-and-retry path without HTTP.
    door = FrontDoor(db)

    def write(count):
        for i in range(count):
            code, body = door.submit_write({"object": "xy"[i % 2], "delta": 1})
            assert code == 200, body

    # Six (replica, fragment) logs of at most one checkpoint period
    # each, the two loads, and slack for installs in flight and for a
    # dead node's frozen log; an unbounded run holds 9 000 by the end.
    per_log = 6 * LIVE_CHECKPOINT_EVERY
    bounds = {
        "wal": 2 * per_log,
        "archive": 2 * per_log,
        "buffer": per_log,
        "trackers": LIVE_WINDOW,
        "history": 3 * LIVE_WINDOW,  # commits trim at 2 windows + installs
        "ring": LIVE_RING_SIZE,
    }
    try:
        write(1000)
        victim = db.agents["ag0"].home_node
        killed_at = db.sim.now
        db.call_on_runtime(lambda: db.hard_kill_node(victim))
        write(500)
        at_1500 = retained(db)
        # Down past the grace period: the survivors stop waiting for
        # the victim's cursor and compact past it.  (And well inside
        # the transport's retransmit budget, ~1 300 ticks: a channel
        # whose packets were given up on stays wedged after a revive.)
        grace = db.recovery.config.grace
        assert db.wait_until(lambda: db.sim.now - killed_at > grace, 10.0)
        db.call_on_runtime(lambda: db.hard_revive_node(victim))
        write(1500)
        at_3000 = retained(db)
        for name, bound in bounds.items():
            assert at_1500[name] <= bound, (name, at_1500)
            assert at_3000[name] <= bound, (name, at_3000)
        gauges = db.metrics.snapshot()["gauges"]
        assert gauges["trackers.retained"] == len(db.trackers)
        assert gauges["trace.ring_len"] == len(db.tracer)
        assert gauges["history.retained"] == db.recorder.retained
        # The victim was compacted past, so it came back through a
        # shipped checkpoint — and ended up where everyone else is.
        assert db.metrics.value("recovery.checkpoints_shipped") >= 1

        def settled():
            for fragment, obj in (("F0", "x"), ("F1", "y")):
                values = {
                    db.nodes[name].store.read(obj)
                    for name in db.replica_set(fragment)
                }
                if len(values) != 1:
                    return False
            return True

        assert db.wait_until(settled, timeout=20.0)
        home = {f: db.agent_of(f).home_node for f in ("F0", "F1")}
        total = sum(
            db.nodes[home[f]].store.read(obj)
            for f, obj in (("F0", "x"), ("F1", "y"))
        )
        # Every acknowledged write is in the counters, bar the ones a
        # failover cut reported as thrown away.
        assert total == 3000 - len(db.recorder.orphaned)
    finally:
        db.stop_runtime()
    db.sim.check()


def test_the_simulator_keeps_everything_and_an_explicit_config_wins():
    from collections import deque

    from repro.obs.taxonomy import DEFAULT_EXCLUDE, LIVE_EXCLUDE
    from repro.obs.trace import DEFAULT_RING_SIZE, LIVE_RING_SIZE
    from repro.recovery.manager import RecoveryConfig

    sim = FragmentedDatabase(["A", "B", "C"])
    assert sim.recovery.config.armed is False
    assert type(sim.trackers) is list
    recorder = sim.recorder
    assert [type(log) for log in (
        recorder.committed, recorder.installs,
        recorder.aborted, recorder.rejected,
    )] == [list] * 4
    assert sim.tracer._ring.maxlen == DEFAULT_RING_SIZE
    assert sim.tracer.exclude == DEFAULT_EXCLUDE
    assert "history.retained" not in sim.metrics.snapshot()["gauges"]

    live = FragmentedDatabase(["A", "B", "C"], runtime="asyncio")
    assert live.recovery.config.armed
    assert isinstance(live.trackers, deque)
    assert live.tracer._ring.maxlen == LIVE_RING_SIZE
    assert live.tracer.exclude == LIVE_EXCLUDE

    given = RecoveryConfig()
    explicit = FragmentedDatabase(
        ["A", "B", "C"], runtime="asyncio", recovery=given
    )
    assert explicit.recovery.config is given
    assert explicit.recovery.config.armed is False


def test_a_windowed_history_still_names_every_orphan(monkeypatch):
    """A home cut off from its replicas keeps acknowledging, and every
    one of those writes is thrown away by the failover cut.  A pure
    count window would have evicted most of them before the cut scanned
    for them; a commit may leave only once a majority of its replicas
    has checkpointed past it, and here only the isolated home has."""
    window, acked_in_isolation = 64, 300
    monkeypatch.setattr("repro.core.system.LIVE_WINDOW", window)
    db = build_db()
    db.start_runtime()
    door = FrontDoor(db)

    def write(count):
        for _ in range(count):
            code, body = door.submit_write({"object": "x", "delta": 1})
            assert code == 200, body

    try:
        write(5)
        others = [name for name in db.nodes if name != "A"]
        assert db.wait_until(
            lambda: all(
                db.nodes[n].store.read("x") == 5 for n in db.replica_set("F0")
            ),
            timeout=10.0,
        )
        db.call_on_runtime(
            lambda: db.partitions.partition_now([["A"], others])
        )
        write(acked_in_isolation)  # the supervisor is not watching yet
        assert db.agents["ag0"].home_node == "A"
        # Several trims have run (one per window of commits) and kept
        # them all: A checkpointed past them, a majority did not.
        assert db.nodes["A"].checkpoints.get("F0").upto > 2 * window
        assert len(db.recorder.committed) >= acked_in_isolation
        db.call_on_runtime(lambda: db.availability.start(until=1e9))
        assert db.wait_until(
            lambda: db.agents["ag0"].home_node != "A", timeout=20.0
        )
        assert len(db.recorder.orphaned) == acked_in_isolation
        assert db.metrics.value("avail.updates_discarded") >= (
            acked_in_isolation
        )
        # Judged, they may go: the successor's stream is replicated and
        # checkpointed by a majority, so the window closes again.
        db.call_on_runtime(db.partitions.heal_now)
        write(8 * window)
        assert db.wait_until(
            lambda: len(db.recorder.committed) <= 3 * window, timeout=10.0
        ), len(db.recorder.committed)
        assert len(db.recorder.orphaned) == acked_in_isolation
    finally:
        db.stop_runtime()
    db.sim.check()
