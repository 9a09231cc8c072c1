"""The runtime abstraction: Clock, Scheduler, and Transport protocols.

These are *structural* protocols — the simulator backend predates them
and is not modified to inherit from anything; it already satisfies the
surfaces.  They exist so the asyncio backend has a precise contract to
implement, so new backends (subprocess meshes, say) know exactly what
the protocol stack touches, and so the few legitimate wall-clock
consumers (benchmark timing) go through an explicit :class:`Clock`
instead of scattering ``time.perf_counter()`` calls that would leak
nondeterminism into simulator paths.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Hashable, Iterable
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """A source of monotonically advancing time."""

    def now(self) -> float:
        """The current time (ticks for sim clocks, seconds for wall)."""
        ...


class WallClock:
    """Real elapsed time via ``time.perf_counter``.

    The only sanctioned wall-clock in the codebase: benchmark harnesses
    measure through this object, never through a bare ``perf_counter``
    call site, so an audit for determinism leaks greps for one name.
    """

    def now(self) -> float:
        return time.perf_counter()


#: Shared wall clock for benchmark timing.
_WALL = WallClock()


def wall_clock() -> WallClock:
    """The process-wide :class:`WallClock` instance."""
    return _WALL


class SimClock:
    """A :class:`Clock` view over any scheduler's ``now`` property."""

    __slots__ = ("_scheduler",)

    def __init__(self, scheduler: "SchedulerProtocol") -> None:
        self._scheduler = scheduler

    def now(self) -> float:
        return self._scheduler.now


@runtime_checkable
class CancellableHandle(Protocol):
    """What ``schedule`` returns: a cancellation handle."""

    def cancel(self) -> None: ...


@runtime_checkable
class SchedulerProtocol(Protocol):
    """The scheduling surface the protocol stack runs against.

    Satisfied by :class:`repro.sim.simulator.Simulator` (virtual time,
    deterministic) and :class:`repro.runtime.scheduler.AsyncioScheduler`
    (real time, ticks scaled onto seconds).
    """

    @property
    def now(self) -> float: ...

    @property
    def pending(self) -> int: ...

    @property
    def events_fired(self) -> int: ...

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> CancellableHandle: ...

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> CancellableHandle: ...

    def schedule_recurring(
        self,
        interval: float,
        callback: Callable[[], None],
        until: float,
        label: str = "",
    ) -> CancellableHandle: ...

    def run(self, until: float | None = None) -> None: ...


@runtime_checkable
class TransportProtocol(Protocol):
    """The delivery surface: registered handlers, asynchronous sends.

    Satisfied by :class:`repro.net.network.Network` (simulated latency)
    and :class:`repro.runtime.tcp.TcpMeshNetwork` (real sockets).
    ``put_on_wire`` is the one step a backend replaces: how a message
    that has cleared holds and fault injection physically travels.
    """

    def register(self, node: str, handler: Callable[[Any], None]) -> None: ...

    def send(self, src: str, dst: str, kind: str, payload: Any) -> Any: ...

    def change_links(
        self,
        hold: Iterable[tuple[Any, Hashable]] = (),
        release: Iterable[tuple[Any, Hashable]] = (),
    ) -> None:
        """Apply ``(link, holder)`` holds and releases, then resume.

        The only way link state changes: a link is down while any
        holder holds it, and every channel the change reconnected is
        resumed before this returns.  The transport consults
        connectivity only when a message is sent and when it arrives,
        and so can rely on a connected channel having nothing queued
        at either edge.

        A resume goes *sender edges → receiver edges → transport
        timers*: queued sends go on the wire, stopped arrivals are
        handed over, and only then does the reliable transport re-arm
        the retransmit timers it parked while the channel was down —
        so a packet whose ack was waiting at an edge is never re-armed,
        and the rest time out afresh from the heal, behind their
        released originals.
        """
        ...

    def put_on_wire(self, message: Any, latency: float) -> None: ...
