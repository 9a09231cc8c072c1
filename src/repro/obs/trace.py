"""Structured tracing: typed events with simulation timestamps.

A :class:`Tracer` collects :class:`TraceEvent` records into a bounded
ring buffer and, optionally, streams them to a JSONL sink.  It starts
*disabled*; every emit site guards with ``tracer.enabled`` (or relies
on :meth:`Tracer.emit` returning immediately), so a quiescent tracer
costs one attribute check per event site and allocates nothing.

Event types are dotted names from :mod:`repro.obs.taxonomy`; fields are
free-form keyword arguments (keep them JSON-serializable — the sink
falls back to ``str()`` otherwise).
"""

from __future__ import annotations

import atexit
import json
import threading
import weakref
from collections import Counter as _TallyCounter
from collections import deque
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any, TextIO

from repro.obs.taxonomy import DEFAULT_EXCLUDE

DEFAULT_RING_SIZE = 65536

#: Ring capacity on the asyncio backend: what the dashboard, the ring's
#: one reader there, renders — a process that stays up keeps the ring
#: full for good, so its size is resident memory (~450 B a slot).
LIVE_RING_SIZE = 16384

#: Tracers with an open JSONL sink, flushed at interpreter exit so an
#: abnormal termination (uncaught exception, SystemExit mid-run) keeps
#: the trace tail instead of losing up to ``flush_every - 1`` records
#: still sitting in Python's file buffer.  Weak references: the hook
#: must not keep dead tracers (or their file handles) alive, and a
#: tracer garbage-collected with its sink open is closed by the file
#: object's own finalizer anyway.
_OPEN_SINKS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


@atexit.register
def _flush_open_sinks() -> None:
    """Flush every tracer that still has a sink open at exit."""
    for tracer in list(_OPEN_SINKS):
        try:
            tracer.flush()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass  # a sink already closed out from under us

#: Sink writes between automatic flushes.  Python buffers file writes,
#: so a run that dies mid-simulation would otherwise lose the tail of
#: its JSONL trace — exactly the part a CI failure upload needs.
DEFAULT_FLUSH_EVERY = 256


@dataclass(slots=True)
class TraceEvent:
    """One structured trace record.

    Slotted: enabled-tracer runs allocate one of these per recorded
    event, and the ring buffer can hold tens of thousands."""

    time: float
    type: str
    fields: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flat dict form (``t``/``type`` plus the event fields)."""
        return {"t": self.time, "type": self.type, **self.fields}


class Tracer:
    """Typed event collector with a ring buffer and optional JSONL sink.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (simulation) time;
        installed by the owning system (``lambda: sim.now``).  Defaults
        to a constant 0.0 clock so a bare tracer still works in tests.
    enabled:
        Start enabled.  Disabled tracers drop events without recording.
    ring_size:
        Ring-buffer capacity; oldest events fall off first.
    exclude:
        Event types to suppress even while enabled.  Defaults to
        :data:`~repro.obs.taxonomy.DEFAULT_EXCLUDE` (the per-callback
        ``sim.fire`` firehose).
    flush_every:
        Flush the JSONL sink after this many writes (0 disables
        periodic flushing; :meth:`close` always flushes).
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        enabled: bool = False,
        ring_size: int = DEFAULT_RING_SIZE,
        exclude: frozenset[str] | set[str] | tuple[str, ...] | None = None,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.exclude: set[str] = set(
            DEFAULT_EXCLUDE if exclude is None else exclude
        )
        self._ring: deque[TraceEvent] = deque(maxlen=ring_size)
        self._sink: TextIO | None = None
        self._sink_context: dict[str, Any] = {}
        self.emitted = 0  # events recorded (post-filter), lifetime
        self.flush_every = flush_every
        self._unflushed = 0  # sink writes since the last flush
        # Emission and sink lifecycle are guarded: the asyncio backend
        # emits from its loop thread while HTTP front-door threads read
        # the ring and SSE watchers poll ``emitted`` — without the lock
        # two writers could interleave halves of JSONL lines.  The
        # simulator path pays one uncontended RLock acquire per
        # *recorded* event (the disabled-tracer early return stays
        # lock-free), which does not register next to the json.dumps
        # already on that path.
        self._lock = threading.RLock()

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        """Start recording events."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording events (the ring buffer is kept)."""
        self.enabled = False

    def clear(self) -> None:
        """Drop all buffered events."""
        with self._lock:
            self._ring.clear()

    # -- emission --------------------------------------------------------

    def emit(self, type: str, **fields: Any) -> None:
        """Record one event (no-op while disabled or excluded).

        Thread-safe: ring append, sequence count, and the sink write
        happen under one lock, so concurrent emitters (the asyncio
        backend's loop thread plus any instrumented worker) can never
        interleave partial JSONL lines.
        """
        if not self.enabled or type in self.exclude:
            return
        time = self.clock() if self.clock is not None else 0.0
        event = TraceEvent(time, type, fields)
        with self._lock:
            self._ring.append(event)
            self.emitted += 1
            if self._sink is not None:
                record = {
                    "t": time, "type": type, **self._sink_context, **fields
                }
                self._sink.write(json.dumps(record, default=str) + "\n")
                self._unflushed += 1
                if self.flush_every and self._unflushed >= self.flush_every:
                    self.flush()

    # -- JSONL sink ------------------------------------------------------

    def open_jsonl(
        self,
        path: str,
        append: bool = False,
        context: Mapping[str, Any] | None = None,
    ) -> None:
        """Stream subsequent events to ``path`` as JSON lines.

        ``context`` key/values are merged into every record (e.g.
        ``{"run": "fa-unrestricted"}`` to distinguish multiple runs
        appended to one file).  Re-opening closes the previous sink.
        """
        self.close()
        with self._lock:
            self._sink = open(path, "a" if append else "w", encoding="utf-8")
            self._sink_context = dict(context or {})
            self._unflushed = 0
        _OPEN_SINKS.add(self)

    def flush(self) -> None:
        """Push buffered sink writes to disk, if a sink is open."""
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                self._unflushed = 0

    def close(self) -> None:
        """Flush and close the JSONL sink, if open."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None
                self._sink_context = {}
                self._unflushed = 0
        _OPEN_SINKS.discard(self)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- queries ---------------------------------------------------------

    def events(self, prefix: str | None = None) -> list[TraceEvent]:
        """Buffered events, optionally filtered by type prefix.

        Snapshots the ring under the emission lock, so a reader thread
        (the live dashboard) never races a concurrent append.
        """
        with self._lock:
            ring = list(self._ring)
        if prefix is None:
            return ring
        return [event for event in ring if event.type.startswith(prefix)]

    def counts(self, prefix: str | None = None) -> dict[str, int]:
        """Buffered event tallies by type, optionally prefix-filtered."""
        tally: _TallyCounter[str] = _TallyCounter()
        for event in self.events():
            if prefix is None or event.type.startswith(prefix):
                tally[event.type] += 1
        return dict(sorted(tally.items()))

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, buffered={len(self._ring)})"
