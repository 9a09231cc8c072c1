"""The HTTP front door: location-transparent access to a live database.

Stdlib-only: a :class:`FrontDoor` wraps one
:class:`~repro.core.system.FragmentedDatabase` running on the asyncio
runtime and serves writes, reads, catalog/metrics introspection, and
the observability dashboard over HTTP/1.1 keep-alive.

Threading model: the runtime's own event loop serves the front door
(:class:`~repro.obs.dashboard.HttpServer`, which frames HTTP, answers
hostile input and notices hang-ups), so a request is parsed, routed
and submitted
on the thread every protocol action runs on — no handler threads, no
hand-off.  A write is a coroutine awaiting a loop future that its
tracker's ``on_done`` resolves; a refused write then awaits one that
the end of the refusal resolves.  ``/``, ``/data.json`` and
``/metrics`` read the whole tracer ring or registry, so they are built
in the loop's default executor: a full ring takes two heartbeat periods
to render, time in which the supervisor would suspect a live home.
:meth:`FrontDoor.submit_write` and :meth:`FrontDoor.submit_read` are
blocking forms of the coroutines for other threads.

Routing: the client names an **object**; the catalog names the owning
fragment and its agent's *current* home at every attempt.  A write the
update gate refuses with a transient cause (a failover window, a token
in transit) waits, bounded, for the event that ends the refusal and is
retried with a fresh transaction at the new home; no timer paces it.
The client sees one slow 200, never a topology detail.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from typing import Any

from repro.cc.ops import Read, Write
from repro.core.system import FragmentedDatabase
from repro.core.transaction import RequestTracker
from repro.errors import DesignError, InitiationError
from repro.obs.dashboard import (
    HTML,
    JSON,
    HttpServer,
    build_dashboard_data,
    render_html,
)

#: Default bound on concurrently queued-or-in-flight HTTP writes; the
#: 65th concurrent write gets an immediate 503 instead of a queue slot
#: (bounded queues are the Section 4 answer to overload, not infinite
#: buffering).
DEFAULT_MAX_QUEUED = 64

DEFAULT_DEADLINE = 30.0

#: The counter each answer to an admitted write bumps.
_WRITE_OUTCOMES = {
    200: "http.updates_committed",
    409: "http.updates_rejected",
    504: "http.updates_timeout",
}


class FrontDoor:
    """One HTTP server fronting one live fragmented database."""

    def __init__(
        self,
        db: FragmentedDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queued: int = DEFAULT_MAX_QUEUED,
        deadline: float = DEFAULT_DEADLINE,
        sse_poll_interval: float = 0.5,
        sse_max_pings: int | None = None,
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        self.max_queued = max_queued
        self.deadline = deadline
        self.sse_poll_interval = sse_poll_interval
        self.sse_max_pings = sse_max_pings
        #: Admitted writes not yet answered (loop thread only).
        self._queued = 0
        self._http: HttpServer | None = None
        self._m = db.metrics
        self._m.counter("http.requests")
        self._m.counter("http.updates_committed")
        self._m.counter("http.updates_retried")
        self._m.counter("http.updates_rejected")
        self._m.counter("http.updates_overload")
        self._m.counter("http.updates_timeout")
        self._m.counter("http.reads_served")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "FrontDoor":
        """Serve on the runtime's loop (start the runtime first)."""
        if self._http is None:
            self._http = HttpServer(
                self._answer,
                lambda: self.db.tracer.emitted,
                self.sse_poll_interval,
                self.sse_max_pings,
            )
            self.port = self.db.sim.run_coroutine(
                self._http.start(self.host, self.port)
            )
        return self

    def stop(self) -> None:
        """Close the listener and every connection.  Idempotent, and
        safe after the runtime stopped."""
        http, self._http = self._http, None
        if http is None:
            return
        if self.db.sim.running:
            self.db.sim.run_coroutine(http.close())
        else:
            http.server.close()  # the loop is gone: only its socket is left

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "FrontDoor":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- write path ------------------------------------------------------

    def submit_write(self, payload: dict[str, Any]) -> tuple[int, dict]:
        """:meth:`write`, blocking, from a thread other than the loop's."""
        return self.db.sim.run_coroutine(self.write(payload), timeout=None)

    async def write(self, payload: dict[str, Any]) -> tuple[int, dict]:
        """Route one client write; returns ``(http_status, body)``."""
        obj = payload.get("object")
        if not isinstance(obj, str):
            return 400, {"error": "missing or non-string 'object'"}
        if "value" not in payload and "delta" not in payload:
            return 400, {"error": "provide 'value' (set) or 'delta' (add)"}
        if "value" not in payload and not _finite_number(payload["delta"]):
            return 400, {"error": "'delta' must be a finite number"}
        timeout = payload.get("deadline", self.deadline)
        if not _finite_number(timeout) or timeout > threading.TIMEOUT_MAX:
            return 400, {"error": "'deadline' must be a number of seconds"}
        fragment = self.db.catalog.fragment_of(obj, strict=False)
        if fragment is None:
            return 404, {"error": f"no fragment owns object {obj!r}"}
        if self._queued >= self.max_queued:
            self._m.inc("http.updates_overload")
            return 503, {"error": "write queue full, retry later"}
        self._queued += 1
        try:
            code, body = await self._write_admitted(
                payload, obj, fragment, timeout
            )
        finally:
            self._queued -= 1
        self._m.inc(_WRITE_OUTCOMES[code])
        return code, body

    async def _write_admitted(
        self, payload: dict[str, Any], obj: str, fragment: str, timeout: float
    ) -> tuple[int, dict]:
        """The queue-and-retry protocol: resolve the route fresh each
        attempt (the agent may have moved), submit a fresh transaction,
        await its terminal event, and after a transient rejection await
        the event that ends it, then retry — until the deadline."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        attempts = 0
        while True:
            attempts += 1
            done, wake = loop.create_future(), loop.create_future()

            def on_done(t: RequestTracker) -> None:
                if t.cause is not None:
                    self.db.on_refusal_end(fragment, lambda: _resolve(wake))
                _resolve(done)

            try:
                tracker = self.db.submit_update(
                    self.db.agent_of(fragment).name,
                    _write_body(payload, obj),
                    writes=[obj],
                    meta={"via": "http"},
                    on_done=on_done,
                )
            except InitiationError as exc:
                return 409, {"error": str(exc), "attempts": attempts}
            settled = await _before(done, deadline)
            out = {
                "txn": tracker.spec.txn_id,
                "status": tracker.status.value,
                "attempts": attempts,
            }
            if not settled:
                error = "deadline passed while request pending"
                return 504, {**out, "error": error}
            if tracker.succeeded:
                home = self.db.agent_of(fragment).home_node
                return 200, {
                    **out, "object": obj, "fragment": fragment, "node": home
                }
            # Every RefusalCause heals on its own (failover completes,
            # the control token lands), so the request waits for that
            # and is retried.
            if tracker.cause is None:
                return 409, {**out, "reason": tracker.reason}
            if not await _before(wake, deadline):
                return 504, {**out, "reason": tracker.reason}
            self._m.inc("http.updates_retried")

    # -- read path -------------------------------------------------------

    def submit_read(self, payload: dict[str, Any]) -> tuple[int, dict]:
        """:meth:`read`, blocking, from a thread other than the loop's."""
        return self.db.sim.run_coroutine(self.read(payload), timeout=None)

    async def read(self, payload: dict[str, Any]) -> tuple[int, dict]:
        """Read one object, locally or via a quorum vote.

        With ``at`` naming a node that does not replicate the owning
        fragment, the declared read routes through the quorum-read
        service — a version vote over the replica set — before the
        body runs; otherwise it is served from the local replica.
        """
        obj = payload.get("object")
        if not isinstance(obj, str):
            return 400, {"error": "missing or non-string 'object'"}
        fragment = self.db.catalog.fragment_of(obj, strict=False)
        if fragment is None:
            return 404, {"error": f"no fragment owns object {obj!r}"}
        at = payload.get("at")
        if at is not None and at not in self.db.nodes:
            return 404, {"error": f"unknown node {at!r}"}
        loop = asyncio.get_running_loop()
        done = loop.create_future()
        value: list[Any] = [None]

        def body(_ctx):
            value[0] = yield Read(obj)

        try:
            tracker = self.db.submit_readonly(
                self.db.agent_of(fragment).name,
                body,
                at=at,
                reads=[obj],
                on_done=lambda _t: _resolve(done),
            )
        except (InitiationError, DesignError) as exc:
            return 409, {"error": str(exc)}
        settled = await _before(done, loop.time() + self.deadline)
        out = {"txn": tracker.spec.txn_id, "status": tracker.status.value}
        if not settled:
            return 504, {**out, "error": "deadline passed while read pending"}
        if not tracker.succeeded:
            return 409, {**out, "reason": tracker.reason}
        self._m.inc("http.reads_served")
        return 200, {
            **out,
            "object": obj,
            "fragment": fragment,
            "node": tracker.node,
            "value": value[0],
        }

    # -- routing ---------------------------------------------------------

    async def _answer(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes, str]:
        """One request's answer: ``(status, body bytes, content type)``."""
        self._m.inc("http.requests")
        try:
            return await self._respond(method, path, body)
        except Exception as exc:  # noqa: BLE001 - answered, then surfaced
            # A fault of the program, not of the request: the client
            # gets a 500 and db.sim.check() raises the exception.
            self.db.sim.errors.append((f"http {method} {path}", exc))
            return 500, _encode({"error": repr(exc)}), JSON

    async def _respond(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes, str]:
        if method == "POST":
            payload = _json_object(body)
            if payload is None:
                code, out = 400, {"error": "body must be a JSON object"}
            elif path == "/updates":
                code, out = await self.write(payload)
            elif path == "/reads":
                code, out = await self.read(payload)
            else:
                code, out = 404, {"error": f"no such endpoint {path!r}"}
        elif method != "GET":
            code, out = 501, {"error": f"unsupported method {method!r}"}
        elif path in ("/", "/data.json", "/metrics"):
            return await asyncio.get_running_loop().run_in_executor(
                None, self._render, path
            )
        elif path == "/healthz":
            code, out = 200, {"ok": True, "nodes": len(self.db.nodes)}
        elif path == "/fragments":
            code, out = 200, self.fragments_payload()
        elif path == "/updates":
            code, out = 200, self.updates_payload()
        else:
            code, out = 404, {"error": f"no such endpoint {path!r}"}
        return code, _encode(out), JSON

    def _render(self, path: str) -> tuple[int, bytes, str]:
        """A page that reads the whole ring or registry (executor)."""
        if path == "/metrics":
            return 200, _encode(self.db.metrics.snapshot()), JSON
        data = build_dashboard_data(
            [e.as_dict() for e in self.db.tracer.events()]
        )
        if path == "/":
            page = render_html(data, title="repro serve", live=True)
            return 200, page.encode(), HTML
        return 200, _encode(data), JSON

    # -- introspection ---------------------------------------------------

    def fragments_payload(self) -> dict[str, Any]:
        """Catalog snapshot: routing truth the clients never need."""
        db = self.db
        fragments = {}
        for name in db.catalog.names:
            agent = db.agent_of(name)
            fragments[name] = {
                "agent": agent.name,
                "home": agent.home_node,
                "replicas": list(db.replica_set(name)),
                "objects": sorted(db.catalog.get(name).objects),
            }
        return {
            "fragments": fragments,
            "nodes": {
                name: {"down": node.down} for name, node in db.nodes.items()
            },
        }

    def updates_payload(self, limit: int = 100) -> dict[str, Any]:
        """The most recent request trackers, newest last."""
        trackers = list(self.db.trackers)[-limit:]
        return {
            "count": self.db.metrics.value("txn.submitted"),
            "updates": [
                {
                    "txn": t.spec.txn_id,
                    "agent": t.spec.agent,
                    "update": t.spec.update,
                    "node": t.node,
                    "status": t.status.value,
                    "reason": t.reason,
                    "submit_time": t.submit_time,
                    "finish_time": t.finish_time,
                }
                for t in trackers
            ],
        }


def _resolve(future: asyncio.Future, value: bool = True) -> None:
    """Settle ``future`` unless its waiter already gave up on it."""
    if not future.done():
        future.set_result(value)


async def _before(future: asyncio.Future, deadline: float) -> bool:
    """Await ``future``; False if the loop clock passes ``deadline`` first."""
    if future.done():
        return future.result()
    timer = future.get_loop().call_at(deadline, _resolve, future, False)
    try:
        return await future
    finally:
        timer.cancel()


def _encode(payload: Any) -> bytes:
    return json.dumps(payload, default=str).encode()


def _json_object(body: bytes) -> dict[str, Any] | None:
    try:
        payload = json.loads(body or b"{}")
    except ValueError:  # JSONDecodeError, and bytes that are not UTF-8
        return None
    return payload if isinstance(payload, dict) else None


def _finite_number(value: Any) -> bool:
    """True for a JSON number a client may send as delta or deadline."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _write_body(payload: dict[str, Any], obj: str):
    """Build the transaction body for one client write.

    ``value`` installs; ``delta`` is the read-modify-write increment
    (the generator convention: bodies run *inside* the scheduler, so
    the read is lock-covered and the sum is serializable).
    """
    if "value" in payload:
        value = payload["value"]

        def body(_ctx):
            yield Write(obj, value)

    else:
        delta = payload["delta"]

        def body(_ctx):
            current = yield Read(obj)
            yield Write(obj, (current or 0) + delta)

    return body


def serve_frontdoor(
    db: FragmentedDatabase,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> FrontDoor:
    """Convenience: build and start a :class:`FrontDoor`."""
    return FrontDoor(db, host=host, port=port, **kwargs).start()
