"""Frame-aware TCP fault proxy: real drops, delays, and kills.

One :class:`FaultProxy` fronts one node's mesh server.  Peers dial the
proxy; the proxy parses the length-prefixed frame stream and forwards
whole frames to the real server, which lets it inject faults at
message granularity without ever corrupting the byte stream:

* ``drop`` — each frame is discarded with the given probability
  (seeded RNG, per-node stream);
* ``delay`` — each forwarded frame waits the given seconds first
  (applied in-order per connection, so FIFO survives);
* ``kill`` / ``revive`` — a killed proxy blackholes every frame and
  severs its upstream connections: the node behind it is unreachable
  at the socket level, exactly like a dead process, until revival.

This is the asyncio backend's answer to the simulator's seeded
:class:`~repro.net.faults.FaultInjector` — same fault taxonomy, but the
loss is real packet loss on a real connection and recovery is carried
entirely by the reliable transport's retransmits, not by simulator
bookkeeping.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any

from repro.runtime.codec import MAX_FRAME


class FaultProxy:
    """A frame-parsing TCP forwarder with injectable faults."""

    def __init__(
        self,
        node: str,
        host: str,
        target_port: int,
        drop: float = 0.0,
        delay: float = 0.0,
        seed: int = 0,
        metrics: Any = None,
    ) -> None:
        self.node = node
        self.host = host
        self.target_port = target_port
        self.drop = drop
        self.delay = delay
        self.killed = False
        self.port: int | None = None
        self.frames_forwarded = 0
        self.frames_dropped = 0
        self.frames_blackholed = 0
        self._rng = random.Random(f"proxy|{seed}|{node}")
        self._server: asyncio.base_events.Server | None = None
        self._upstreams: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._downstreams: set[asyncio.StreamWriter] = set()
        self._metrics = metrics

    async def start(self) -> None:
        """Bind the proxy's listening socket (ephemeral port)."""
        self._server = await asyncio.start_server(self._handle, self.host, 0)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener, handler tasks, upstream connections."""
        if self._server is not None:
            self._server.close()
        # Close transports rather than cancelling: the handler tasks
        # are server-spawned, and cancelling those re-raises into the
        # streams connection_made callback (loud on 3.11).
        for writer in list(self._downstreams):
            writer.close()
        tasks = list(self._conn_tasks)
        if tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True),
                    timeout=2.0,
                )
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                for task in tasks:
                    task.cancel()
        self._conn_tasks.clear()
        self._downstreams.clear()
        for writer in list(self._upstreams):
            writer.close()
        self._upstreams.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # -- fault controls --------------------------------------------------

    def kill(self) -> None:
        """Blackhole all traffic and sever live connections."""
        self.killed = True
        for writer in list(self._upstreams):
            writer.close()
        self._upstreams.clear()
        if self._metrics is not None:
            self._metrics.inc("proxy.kills")

    def revive(self) -> None:
        """Resume forwarding (sender retransmits refill the pipeline)."""
        self.killed = False
        if self._metrics is not None:
            self._metrics.inc("proxy.revives")

    # -- forwarding ------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        upstream: asyncio.StreamWriter | None = None
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._downstreams.add(writer)
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                    length = int.from_bytes(header, "big")
                    if length > MAX_FRAME:
                        # Nothing after a bad prefix can be framed.
                        if self._metrics is not None:
                            self._metrics.inc("tcp.frames_undecodable")
                        return
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return
                if self.killed:
                    self.frames_blackholed += 1
                    if self._metrics is not None:
                        self._metrics.inc("proxy.frames_blackholed")
                    continue
                if self.drop and self._rng.random() < self.drop:
                    self.frames_dropped += 1
                    if self._metrics is not None:
                        self._metrics.inc("proxy.frames_dropped")
                    continue
                if self.delay:
                    await asyncio.sleep(self.delay)
                    if self.killed:
                        self.frames_blackholed += 1
                        continue
                if upstream is None or upstream.is_closing():
                    try:
                        _, upstream = await asyncio.open_connection(
                            self.host, self.target_port
                        )
                        self._upstreams.add(upstream)
                    except OSError:
                        self.frames_dropped += 1
                        continue
                try:
                    upstream.write(header + body)
                    await upstream.drain()
                    self.frames_forwarded += 1
                except (ConnectionError, OSError):
                    self._upstreams.discard(upstream)
                    upstream = None
                    self.frames_dropped += 1
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._downstreams.discard(writer)
            try:
                if upstream is not None:
                    self._upstreams.discard(upstream)
                    upstream.close()
                writer.close()
            except RuntimeError:  # loop already closed at teardown
                pass

    def __repr__(self) -> str:
        state = "killed" if self.killed else "live"
        return (
            f"FaultProxy({self.node}, {state}, port={self.port}, "
            f"fwd={self.frames_forwarded}, dropped={self.frames_dropped})"
        )
