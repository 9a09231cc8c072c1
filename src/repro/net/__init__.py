"""Network substrate: topology, partitions, delivery, reliable broadcast.

The paper assumes a point-to-point network of arbitrary topology plus a
reliable broadcast mechanism with two guarantees (Section 3.2):

1. all messages are eventually delivered, and
2. messages broadcast by one node are processed at all other nodes in
   the order they were sent.

:class:`~repro.net.network.Network` models links with latency and
up/down state; messages between nodes that are currently disconnected
are *held*, in send order, and delivered after connectivity is
restored (eventual delivery), and every ``(src, dst)`` channel is FIFO
(FIFO processing), so the paper's guarantees hold even across
partitions and heals.  :class:`~repro.net.broadcast.ReliableBroadcast`
is a stateless fan-out over those channels;
:class:`~repro.net.reliable.ReliableTransport` re-earns both guarantees
when faults are injected.
"""

from repro.net.broadcast import ReliableBroadcast
from repro.net.faults import (
    CrashEpisode,
    FaultInjector,
    FaultPlan,
    LinkFlap,
    LossBurst,
)
from repro.net.message import Message
from repro.net.network import Network
from repro.net.partition import PartitionManager, PartitionSpec
from repro.net.reliable import ReliableConfig, ReliableTransport
from repro.net.topology import Topology

__all__ = [
    "CrashEpisode",
    "FaultInjector",
    "FaultPlan",
    "LinkFlap",
    "LossBurst",
    "Message",
    "Network",
    "PartitionManager",
    "PartitionSpec",
    "ReliableBroadcast",
    "ReliableConfig",
    "ReliableTransport",
    "Topology",
]
