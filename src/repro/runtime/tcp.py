"""TcpMeshNetwork: the Network surface over real asyncio TCP sockets.

Subclasses :class:`~repro.net.network.Network` and overrides exactly one
step — :meth:`~repro.net.network.Network.put_on_wire`, how a
link-crossing message physically travels.  The
whole observable surface above it (send/deliver counters, trace events,
partition holds, the reliable transport's wrap/intercept hooks) is
inherited unchanged, so protocol code and the audit cannot tell the
backends apart except by the wire being real.

Topology of one mesh: every node runs an ``asyncio.Server`` on an
ephemeral loopback port; each ``(src, dst)`` channel gets one
persistent client connection fed by a dedicated sender task draining a
FIFO queue — TCP's byte ordering then gives the per-channel FIFO the
simulated network enforced with a delivery-time floor.  Frames are the
length-prefixed JSON of :mod:`repro.runtime.codec`.

Faults: the one :class:`~repro.net.faults.FaultInjector` of the
simulator runs here unchanged — it decides at the inherited
``_schedule_delivery`` step, just before :meth:`put_on_wire`, so a
``FaultPlan``'s loss drops a frame before it reaches the socket and
its duplication writes a frame twice, repaired by the same
``ReliableTransport`` that repairs them in the simulator.  Jitter has
no meaning here (the wire supplies its own latency).  A node killed
with ``hard_kill_node`` keeps its links up; ``down_guard`` refuses its
inbound frames *before* the transport's intercept, so a crashed node
can never acknowledge a packet its database never saw.

The paper-model kill works too, by the inherited channel
rule: ``fail_node`` holds the node's links down, sends wait at the
sender's edge and the inherited ``change_links`` releases them through
this class's transmission override — onto the socket — while a frame
that came off the socket during the outage waits at the receiver's
edge and is handed to the handler at the heal, not encoded and sent
again.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable

from repro.errors import NetworkError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.runtime.codec import MAX_FRAME, CodecError, WireCodec, default_codec
from repro.runtime.scheduler import AsyncioScheduler

#: Connection attempts per frame before the frame is dropped (the
#: reliable transport's retransmit owns recovery beyond that).
_CONNECT_ATTEMPTS = 20
_CONNECT_BACKOFF = 0.05


class TcpMeshNetwork(Network):
    """A real-socket mesh behind the simulated network's interface."""

    def __init__(
        self,
        sim: AsyncioScheduler,
        topology: Topology,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        codec: WireCodec | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        super().__init__(sim, topology, tracer=tracer, metrics=metrics)
        self.codec = codec or default_codec()
        self.host = host
        #: ``node -> bool`` guard consulted before delivery; a killed
        #: node's frames are dropped *before* the reliable transport
        #: can acknowledge them (set by the owning system).
        self.down_guard: Callable[[str], bool] | None = None
        self._servers: dict[str, asyncio.base_events.Server] = {}
        self._ports: dict[str, int] = {}
        self._queues: dict[tuple[str, str], asyncio.Queue] = {}
        self._senders: dict[tuple[str, str], asyncio.Task] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._started = False
        self._closed = False
        self._c_frames_out = self.metrics.counter("tcp.frames_sent")
        self._c_frames_in = self.metrics.counter("tcp.frames_received")
        self._c_frames_down = self.metrics.counter("tcp.frames_dropped_down")
        self._c_frames_lost = self.metrics.counter("tcp.frames_lost")
        self._c_undecodable = self.metrics.counter("tcp.frames_undecodable")
        self._c_bytes_out = self.metrics.counter("tcp.bytes_sent")
        self.metrics.gauge("tcp.outbox_now", self._outbox_depth)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Bind one server per registered node."""
        if self._started:
            return
        self._closed = False
        self.sim.run_coroutine(self._start())
        self._started = True

    async def _start(self) -> None:
        for node in sorted(self._handlers):
            server = await asyncio.start_server(
                lambda r, w, n=node: self._serve_conn(n, r, w),
                self.host,
                0,
            )
            port = server.sockets[0].getsockname()[1]
            self._servers[node] = server
            self._ports[node] = port

    def stop(self) -> None:
        """Close servers and sender tasks; idempotent."""
        if not self._started or not self.sim.running:
            return
        self.sim.run_coroutine(self._stop())
        self._started = False

    async def _stop(self) -> None:
        # Closed from here until the next start(): put_on_wire refuses
        # frames, because a retransmit timer firing during the awaits
        # below would otherwise create a fresh queue and sender task
        # that nothing cancels, and one firing after them has no mesh
        # to send on.
        self._closed = True
        for server in self._servers.values():
            server.close()
        senders = list(self._senders.values())
        for task in senders:
            task.cancel()
        for task in senders:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._senders.clear()
        self._queues.clear()
        # Inbound handlers: close their transports so readexactly hits
        # EOF and each task *returns* — cancelling tasks spawned by
        # asyncio.start_server trips the streams connection_made
        # callback, which re-raises the CancelledError into the loop's
        # exception handler.  Cancellation is the fallback only.
        for writer in list(self._conn_writers):
            writer.close()
        conns = list(self._conn_tasks)
        if conns:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*conns, return_exceptions=True),
                    timeout=2.0,
                )
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                for task in conns:
                    task.cancel()
        self._conn_tasks.clear()
        self._conn_writers.clear()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()

    def port_of(self, node: str) -> int:
        """The real server port of ``node`` (after :meth:`start`)."""
        return self._ports[node]

    def _outbox_depth(self) -> int:
        return sum(q.qsize() for q in self._queues.values())

    # -- transmission override -------------------------------------------

    def put_on_wire(self, message: Message, latency: float) -> None:
        # The simulated backend turns ``latency`` into a delivery event;
        # here the wire supplies its own latency, so the model value
        # (and any injected jitter) is ignored.  Holds, partition
        # semantics and injected loss already happened upstream.
        if self._closed:
            self._c_frames_lost.inc()
            return
        if not self._started:
            raise NetworkError(
                "TCP mesh not started: call FragmentedDatabase.start_runtime()"
            )
        channel = (message.src, message.dst)
        queue = self._queues.get(channel)
        if queue is None:
            queue = self._queues[channel] = asyncio.Queue()
            self._senders[channel] = asyncio.ensure_future(
                self._channel_sender(channel, queue)
            )
        frame = self.codec.encode_frame(message)
        self._c_frames_out.inc()
        self._c_bytes_out.inc(len(frame))
        queue.put_nowait(frame)

    async def _channel_sender(
        self, channel: tuple[str, str], queue: asyncio.Queue
    ) -> None:
        """Drain one channel's outbox over a persistent connection."""
        _src, dst = channel
        writer: asyncio.StreamWriter | None = None
        try:
            while True:
                frame = await queue.get()
                for attempt in range(_CONNECT_ATTEMPTS):
                    if writer is None or writer.is_closing():
                        try:
                            _, writer = await asyncio.open_connection(
                                self.host, self._ports[dst]
                            )
                        except OSError:
                            writer = None
                            await asyncio.sleep(_CONNECT_BACKOFF * (attempt + 1))
                            continue
                    try:
                        writer.write(frame)
                        await writer.drain()
                        break
                    except (ConnectionError, OSError):
                        writer = None
                else:
                    # Connection never came up: the frame is lost on the
                    # floor, which is exactly what the reliable
                    # transport's retransmit budget exists to absorb.
                    self._c_frames_lost.inc()
        finally:
            if writer is not None:
                writer.close()

    # -- receive side ----------------------------------------------------

    async def _serve_conn(
        self,
        node: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Read frames off one inbound connection until EOF."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                    length = int.from_bytes(header, "big")
                    if length > MAX_FRAME:
                        # Nothing after a bad prefix can be framed.
                        self._c_undecodable.inc()
                        return
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:  # the peer hung up mid-frame
                        self._c_undecodable.inc()
                    return
                except (ConnectionError, OSError):
                    return
                try:
                    message = self.codec.decode_frame(body)
                except CodecError:
                    self._c_undecodable.inc()
                    continue
                if message.dst != node or message.src not in self._handlers:
                    self._c_undecodable.inc()  # not a frame of this mesh
                    continue
                self._on_frame(message)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            try:
                writer.close()
            except RuntimeError:  # loop already closed at teardown
                pass

    def _on_frame(self, message: Message) -> None:
        self._c_frames_in.inc()
        guard = self.down_guard
        if guard is not None and guard(message.dst):
            # The destination node is crashed at the database layer: a
            # real dead process would never read this frame, so neither
            # ack nor deliver it — the sender's retransmits will carry
            # it through recovery.
            self._c_frames_down.inc()
            return
        self._deliver(message)
