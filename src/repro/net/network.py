"""The network simulator: delivery with latency, partitions, holding.

Semantics
---------
Each ``(src, dst)`` channel is two FIFO queues around a FIFO wire:

* the **sender edge** queues sends made while the channel is
  disconnected — they have never been on the wire;
* the **wire** delivers after the shortest-path latency, never before
  an earlier send on the same channel (the delivery-time floor in
  :meth:`Network.put_on_wire`; TCP byte order on the socket backend);
* the **receiver edge** queues arrivals a partition stopped — they
  have crossed the wire and owe no second trip.

Connectivity is consulted at two instants only, send and arrival (a
link cut and healed under a message in flight does not disturb it),
and nothing is lost: link state has one writer,
:meth:`Network.change_links`, which applies a set of ``(link, holder)``
holds and releases and resumes every reconnected channel before it
returns — the paper's "propagation will be completed after the
partition is fixed".

Per-channel FIFO is the paper's requirement 3.2-(2) and the *only*
ordering the fault-free stack does (the broadcast layer above is a
stateless fan-out; quasi-transactions, lock grants, move handshakes,
quorum votes and heartbeats all rely on it).  It holds by induction,
with no comparison of send times anywhere:

1. each edge is a FIFO queue and the wire is FIFO;
2. what stopped at the receiver was sent before what is on the wire,
   which was sent before what is queued at the sender;
3. a resume appends the sender edge to the wire and hands the receiver
   edge over before anything on the wire can land, and no send can
   fall between a link flip and its resume (they are one call), so a
   connected channel has empty edges and nothing passes a queued
   message.

Under injected loss, duplication or reordering the
:class:`~repro.net.reliable.ReliableTransport` restores the same
contract with channel sequence numbers.  Its retransmit timers sleep
while a channel is down; a resume wakes them last — sender edges,
receiver edges, then timers — so an ack handed over at the heal has
already retired its packet and every other timeout is measured from
the heal, after the original was released.

Observability
-------------
Every send/deliver/hold/release bumps a counter in the shared
:class:`~repro.obs.metrics.MetricsRegistry` and, when the shared
:class:`~repro.obs.trace.Tracer` is enabled, emits a ``message.*``
trace event.  The invariants the reconciliation tests rely on:

* ``message.send`` events  == ``messages_sent``
* ``message.deliver`` events == ``messages_delivered``
* ``message.hold`` - ``message.release`` events == ``held_count()``
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable, Hashable, Iterable
from typing import TYPE_CHECKING, Any

from repro.errors import NetworkError
from repro.net.message import Message
from repro.net.topology import Link, Topology
from repro.obs import taxonomy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - runtime imports net through tcp
    from repro.runtime.api import SchedulerProtocol

Handler = Callable[[Message], None]
Channel = tuple[str, str]


class Network:
    """Simulated point-to-point network over a :class:`Topology`.

    Each participating node registers a single receive handler.  All
    sends are asynchronous; delivery happens via scheduler events.

    Statistics (message counts by kind, bytes approximated by payload
    update counts) are tracked for the overhead experiments, both as
    plain attributes (``messages_sent`` …) and in the shared metrics
    registry (``net.*`` counters).
    """

    def __init__(
        self,
        sim: SchedulerProtocol,
        topology: Topology,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._handlers: dict[str, Handler] = {}
        # The two edge queues of each channel that ever held a message:
        # sends made while disconnected, arrivals a partition stopped.
        self._at_sender: dict[Channel, deque[Message]] = defaultdict(deque)
        self._at_receiver: dict[Channel, deque[Message]] = defaultdict(deque)
        # Last scheduled delivery time per channel: the wire's FIFO floor.
        self._last_delivery: dict[Channel, float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_by_kind: dict[str, int] = defaultdict(int)
        # Hot-path counter handles (one attribute add per event).
        self._c_sent = self.metrics.counter("net.messages_sent")
        self._c_delivered = self.metrics.counter("net.messages_delivered")
        self._c_held = self.metrics.counter("net.messages_held")
        self._c_released = self.metrics.counter("net.messages_released")
        self._kind_counters: dict[str, Any] = {}
        self._h_delay = self.metrics.histogram("net.delivery_delay")
        self.metrics.gauge("net.held_now", self.held_count)
        # The per-channel FIFO floor.  The E12a ablation switches it
        # off so a FaultPlan's jitter lets messages overtake each other
        # on one channel — which the reliable transport's channel
        # sequence numbers must then repair.
        self.fifo_channels = True
        # Optional attached layers.  ``faults`` (a FaultInjector) takes
        # over delivery scheduling to inject loss/dup/jitter;
        # ``reliable`` (a ReliableTransport) wraps sends and intercepts
        # deliveries for ack/retransmit semantics.  Both default off so
        # fault-free runs are byte-identical to a bare network.
        self.faults = None
        self.reliable = None
        # Interned event labels per (kind, src, dst): building the
        # delivery label with an f-string on every send shows up in
        # profiles at E15 scale, and the distinct-label population is
        # tiny (kinds x channels), so memoize the strings.
        self._labels: dict[tuple[str, str, str], str] = {}

    def _label(self, kind: str, src: str, dst: str) -> str:
        label = self._labels.get((kind, src, dst))
        if label is None:
            label = self._labels[(kind, src, dst)] = (
                f"deliver {kind} {src}->{dst}"
                + (" loopback" if src == dst else "")
            )
        return label

    # -- wiring ---------------------------------------------------------

    def register(self, node: str, handler: Handler) -> None:
        """Attach the receive handler for ``node``."""
        if node not in self.topology.nodes:
            raise NetworkError(f"unknown node {node!r}")
        if node in self._handlers:
            raise NetworkError(f"handler already registered for {node!r}")
        self._handlers[node] = handler

    # -- sending ----------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: Any) -> Message:
        """Send a message; returns the (not yet delivered) envelope.

        Loopback sends (``src == dst``) are delivered to the local
        handler via a zero-latency simulator event: they never cross a
        link, so they bypass partitions, fault injection, and the
        reliable-delivery transport, but still count and trace like any
        other message.
        """
        if dst not in self._handlers:
            raise NetworkError(f"no handler registered for {dst!r}")
        message = Message(src, dst, kind, payload, sent_at=self.sim.now)
        self._count_send(message)
        if src == dst:
            self.sim.schedule(
                0.0,
                lambda: self._hand_over(message),
                label=self._label(kind, src, dst),
            )
            return message
        if self.reliable is not None:
            self.reliable.on_send(message)
        self._transmit(message)
        return message

    def resend(self, src: str, dst: str, kind: str, payload: Any) -> Message:
        """Retransmit an already-wrapped packet (reliable transport only).

        Counts and traces as a fresh send (``retransmit=True``) but
        skips the transport's wrap-and-track step — the caller already
        owns the packet's retry state.
        """
        message = Message(src, dst, kind, payload, sent_at=self.sim.now)
        self._count_send(message, retransmit=True)
        self._transmit(message)
        return message

    # -- partition lifecycle ----------------------------------------------

    def change_links(
        self,
        hold: Iterable[tuple[Link, Hashable]] = (),
        release: Iterable[tuple[Link, Hashable]] = (),
    ) -> None:
        """The one link-state change: hold, release, resume.

        A link is down while any holder holds it (a crashed endpoint, a
        partition episode, a flap window — any hashable key).  Each
        ``(link, holder)`` in ``hold`` is added and each in ``release``
        dropped (both idempotent), then every channel the change
        reconnected is resumed before this returns, so nothing can be
        sent between a flip and its resume.  A caller that reports how
        many links come up asks :meth:`Link.released_by` first.
        """
        for link, holder in hold:
            link._change(holder, hold=True)
        for link, holder in release:
            link._change(holder, hold=False)
        self._resume()

    def _resume(self) -> None:
        # The sends queued at a sender edge are put on the wire — fault
        # injector and FIFO floor apply to those, and only to those.
        # The arrivals stopped at a receiver edge already crossed it:
        # they go to the handler as they are, in arrival order, before
        # anything on the wire can land.  Sender edges first, so that a
        # handler replying during the hand-over finds its channel's edge
        # empty and its reply queues on the wire behind the earlier sends.
        # The transport's parked timers last: what a handed-over ack
        # just retired is not re-armed, and the rest run from now.
        for channel, queue in self._at_sender.items():
            if not queue:
                continue
            latency = self.topology.path_latency(*channel)
            if latency is not None:
                while queue:
                    self._schedule_delivery(self._release(queue), latency)
        for channel, queue in self._at_receiver.items():
            if queue and self.topology.path_latency(*channel) is not None:
                while queue:
                    self._hand_over(self._release(queue))
        if self.reliable is not None:
            self.reliable.on_resume()

    def held_count(self) -> int:
        """Number of messages currently held due to disconnection."""
        return sum(map(len, self._at_sender.values())) + sum(
            map(len, self._at_receiver.values())
        )

    def dispatch(self, message: Message) -> None:
        """Call the destination's registered handler with ``message``."""
        self._handlers[message.dst](message)

    # -- internals --------------------------------------------------------

    def _count_send(self, message: Message, **trace_extra: Any) -> None:
        self.messages_sent += 1
        self.messages_by_kind[message.kind] += 1
        self._c_sent.inc()
        counter = self._kind_counters.get(message.kind)
        if counter is None:
            counter = self._kind_counters[message.kind] = self.metrics.counter(
                f"net.kind.{message.kind}"
            )
        counter.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.MESSAGE_SEND,
                src=message.src,
                dst=message.dst,
                kind=message.kind,
                **trace_extra,
            )

    def _transmit(self, message: Message) -> None:
        # Send: the first instant connectivity is consulted.
        latency = self.topology.path_latency(message.src, message.dst)
        if latency is None:
            self._hold(self._at_sender[(message.src, message.dst)], message)
        else:
            self._schedule_delivery(message, latency)

    def _hold(self, edge: deque[Message], message: Message) -> None:
        edge.append(message)
        self._c_held.inc()
        self._trace_edge(taxonomy.MESSAGE_HOLD, message)

    def _release(self, edge: deque[Message]) -> Message:
        message = edge.popleft()
        self._c_released.inc()
        self._trace_edge(taxonomy.MESSAGE_RELEASE, message)
        return message

    def _trace_edge(self, event: str, message: Message) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                event, src=message.src, dst=message.dst, kind=message.kind
            )

    def _schedule_delivery(self, message: Message, latency: float) -> None:
        # The fault injector, when attached, owns the scheduling
        # decision for every link-crossing delivery (drop / jitter /
        # duplicate); it calls back into ``put_on_wire`` for each
        # copy that survives.
        if self.faults is not None:
            self.faults.intercept(message, latency)
            return
        self.put_on_wire(message, latency)

    def put_on_wire(self, message: Message, latency: float) -> None:
        """Physically transmit one link-crossing message.

        The backend seam: here a delivery event ``latency`` ticks out;
        :class:`~repro.runtime.tcp.TcpMeshNetwork` overrides it with a
        real socket write.  Holds, fault injection and the reliable
        transport's wrapping have all happened by the time it runs.
        """
        channel = (message.src, message.dst)
        at = self.sim.now + latency
        if self.fifo_channels:
            floor = self._last_delivery.get(channel, 0.0)
            if at < floor:
                at = floor  # preserve channel FIFO
            self._last_delivery[channel] = at
        self.sim.schedule_at(
            at,
            lambda: self._deliver(message),
            label=self._label(message.kind, message.src, message.dst),
        )

    def _deliver(self, message: Message) -> None:
        # Arrival: the second and last instant connectivity is
        # consulted.  A message a partition stops here has crossed the
        # wire; it waits at the receiver's edge (not lost — requirement
        # (1) of the paper) and is handed over, not re-sent, at the heal.
        if self.topology.path_latency(message.src, message.dst) is None:
            self._hold(self._at_receiver[(message.src, message.dst)], message)
            return
        self._hand_over(message)

    def _hand_over(self, message: Message) -> None:
        # The last step of every delivery: count, observe, trace, then
        # the reliable transport's intercept or the node's handler
        # (loopbacks never crossed a link, so the transport is not asked).
        self.messages_delivered += 1
        self._c_delivered.inc()
        delay = self.sim.now - message.sent_at
        self._h_delay.observe(delay)
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.MESSAGE_DELIVER,
                src=message.src,
                dst=message.dst,
                kind=message.kind,
                delay=delay,
            )
        if (
            self.reliable is not None
            and message.src != message.dst
            and self.reliable.intercept(message)
        ):
            return
        self.dispatch(message)
