"""Pluggable runtime backends: the simulator, and real asyncio TCP.

The protocol stack (reliable transport, replication pipeline, quorum
reads, availability supervisor) observes only three capabilities:

* a **clock** — ``sim.now``, a monotonically advancing time in ticks;
* a **scheduler** — ``sim.schedule(delay, callback)`` and friends,
  returning cancellable handles;
* a **transport** — ``network.send(src, dst, kind, payload)`` with
  at-least-once-or-held delivery into per-node handlers.

:mod:`repro.runtime.api` names those surfaces as protocols.  The
discrete-event :class:`~repro.sim.simulator.Simulator` and
:class:`~repro.net.network.Network` are the deterministic
implementation; :class:`~repro.runtime.scheduler.AsyncioScheduler` and
:class:`~repro.runtime.tcp.TcpMeshNetwork` are the real-time one —
every node an asyncio task behind a real TCP socket, exchanging
length-prefixed JSON frames, with the same protocol code running
unmodified on top.  ``FragmentedDatabase(..., runtime="asyncio")``
selects the backend.
"""

from repro.runtime.api import Clock, SchedulerProtocol, SimClock, TransportProtocol, WallClock, wall_clock
from repro.runtime.codec import WireCodec, default_codec
from repro.runtime.scheduler import AsyncioScheduler
from repro.runtime.tcp import TcpMeshNetwork

__all__ = [
    "AsyncioScheduler",
    "Clock",
    "SchedulerProtocol",
    "SimClock",
    "TcpMeshNetwork",
    "TransportProtocol",
    "WallClock",
    "WireCodec",
    "default_codec",
    "wall_clock",
]
