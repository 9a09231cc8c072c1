"""Broadcast as a stateless fan-out over FIFO channels (Section 3.2).

The paper requires a broadcast mechanism such that

1. all messages are eventually delivered, and
2. messages broadcast by one node are *processed* at all other nodes in
   the same order as they were sent.

Neither is implemented here.  Requirement (1) is the
:class:`~repro.net.network.Network` holding messages across partitions
(plus the :class:`~repro.net.reliable.ReliableTransport` under loss);
requirement (2) is the network's per-channel FIFO: one sender's
messages to one receiver travel one channel, so they arrive in send
order.  This layer only stamps each message with its wire identity and
sends it point-to-point to every target — it keeps no per-receiver
state, buffers nothing and drops nothing.  A quasi-transaction's place
in its fragment's update stream is carried in the data (``stream_seq``,
checked by :mod:`repro.replication.admission`), not in arrival order.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.net.message import Message
from repro.net.network import Network

DeliverFn = Callable[[str, int, Any], None]


@dataclass(frozen=True, slots=True)
class SeqPayload:
    """Wire format: sender's broadcast sequence number plus payload.

    ``(sender, stream, seq)`` is the wire identity the lineage spans
    carry; nothing orders or de-duplicates by it.  The default stream
    ``""`` is the classic broadcast-to-all channel; per-fragment
    multicast (partial replication) numbers each fragment on its own
    stream.
    """

    sender: str
    seq: int
    kind: str
    body: Any
    stream: str = ""


class ReliableBroadcast:
    """Point-to-point fan-out of one sender's message to its targets.

    Each participating node gets one endpoint (:meth:`attach`) with a
    delivery callback ``deliver(sender, seq, body)``.  The sender's own
    callback is invoked synchronously (a node always "hears" its own
    broadcast first, matching the paper's home-node-executes-first
    model); reliability and per-sender order come from the channels
    underneath.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._deliver: dict[str, DeliverFn] = {}
        self._next_send_seq: dict[tuple[str, str], int] = defaultdict(int)
        self._c_sent = network.metrics.counter("bcast.sent")

    def attach(self, node: str, deliver: DeliverFn, register: bool = True) -> None:
        """Register ``node`` with its application-level delivery callback.

        With ``register=False`` the caller owns the network registration
        and must route broadcast messages (payload type
        :class:`SeqPayload`) to :meth:`handle_message` itself — this is
        how :class:`repro.core.node.DatabaseNode` multiplexes broadcast
        and unicast traffic over its single network handler.
        """
        self._deliver[node] = deliver
        if register:
            self.network.register(node, self.handle_message)

    def next_seq(self, sender: str, stream: str = "") -> int:
        """The sequence number the next send on ``stream`` will assign.

        Lets the batcher stamp the wire identity on lineage spans
        *before* the broadcast runs the sender's own synchronous
        delivery.
        """
        return self._next_send_seq[(sender, stream)]

    def broadcast(self, sender: str, body: Any, kind: str = "bcast") -> int:
        """Broadcast ``body`` from ``sender``; returns its sequence number."""
        return self.multicast(sender, body, kind=kind)

    def multicast(
        self,
        sender: str,
        body: Any,
        kind: str = "bcast",
        targets: Iterable[str] | None = None,
        stream: str = "",
    ) -> int:
        """Send ``body`` to ``targets``, numbered on ``stream``.

        ``targets=None`` means every attached node — a broadcast.
        Targets that are not attached are skipped.  The sender, if a
        member of the target set, hears its own message synchronously
        before the method returns; remote deliveries are scheduled
        network events.
        """
        seq = self._next_send_seq[(sender, stream)]
        self._next_send_seq[(sender, stream)] = seq + 1
        self._c_sent.inc()
        payload = SeqPayload(sender, seq, kind, body, stream)
        send = self.network.send  # hoisted: one lookup per fan-out, not per peer
        attached = self._deliver
        deliver_local = False
        for dst in (attached if targets is None else targets):
            if dst == sender:
                deliver_local = True
            elif dst in attached:
                send(sender, dst, kind, payload)
        if deliver_local:
            attached[sender](sender, seq, body)
        return seq

    def handle_message(self, message: Message) -> None:
        """Hand one network message carrying a :class:`SeqPayload` on."""
        payload: SeqPayload = message.payload
        self._deliver[message.dst](payload.sender, payload.seq, payload.body)
