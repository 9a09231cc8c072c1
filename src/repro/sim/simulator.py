"""The discrete-event run loop.

The scheduling core is a calendar-queue / event-wheel built for the
dense zero- and small-delay traffic that batching, loopback delivery,
and the install pipeline generate.  Near-term events land in per-tick
buckets with O(1) appends; far timers park in an overflow heap and
migrate as the wheel reaches their bucket.  Same-instant events fire as
one *run* batched through a FIFO deque, so a zero-delay cascade never
touches a heap at all.

Events fire in exactly ``(time, scheduling-order)`` order — the hard
determinism contract that golden traces, the lineage auditor, and chaos
seeds are built on — and cancelled-event tombstones are compacted once
they outnumber live events, so cancel-heavy workloads (retransmit
timers under chaos) keep bounded queues.

(The original binary-heap core, kept behind ``REPRO_SIM_SCHEDULER=heap``
for one release while ``tests/test_scheduler_equivalence.py`` proved the
wheel fired identical schedules, has been removed; the wheel is the only
core.)
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from collections.abc import Callable

from repro.errors import SimulationError
from repro.obs.taxonomy import SIM_FIRE
from repro.obs.trace import Tracer
from repro.sim.events import Event, EventHandle

#: Tombstone floor: compaction never triggers below this many cancelled
#: entries, so tiny runs never pay a rebuild.
_COMPACT_MIN = 64

#: Relative tolerance for :meth:`Simulator.schedule_at` deltas that come
#: out epsilon-negative from accumulated float drift.
_PAST_EPSILON = 1e-9


class Simulator:
    """A deterministic discrete-event simulator.

    Components schedule callbacks at future simulation times; ``run``
    fires them in ``(time, scheduling-order)`` order.  Time is a float
    in abstract "ticks" — experiments interpret a tick as roughly one
    millisecond, but nothing in the library depends on the unit.

    A structured :class:`~repro.obs.trace.Tracer` can be attached
    (:attr:`tracer`); while it is enabled, fired events emit ``sim.fire``
    trace records carrying the event's label.  ``sim.fire`` is in the
    tracer's default exclude set — opt in with
    ``tracer.exclude.discard(taxonomy.SIM_FIRE)``.  At scale, set
    :attr:`fire_trace_every` to N > 1 to sample every Nth fired event
    instead of all of them.

    Parameters
    ----------
    wheel_width:
        Simulated-time span of one wheel bucket.
    wheel_slots:
        Number of buckets; events beyond ``wheel_width * wheel_slots``
        ticks ahead overflow to a far-timer heap.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        wheel_width: float = 1.0,
        wheel_slots: int = 1024,
    ) -> None:
        if wheel_width <= 0:
            raise SimulationError("wheel_width must be positive")
        if wheel_slots < 2:
            raise SimulationError("wheel_slots must be >= 2")
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._fired = 0
        self._pending = 0
        self._cancelled = 0  # tombstones still sitting in a queue
        self._tracer: Tracer | None = None
        #: Emit a ``sim.fire`` trace record for every Nth fired event
        #: (1 = every event).  Sampling only thins the firehose channel;
        #: all other trace events stay exact.
        self.fire_trace_every = 1
        self._width = wheel_width
        self._slots = wheel_slots
        self._wheel: list[list[Event]] = [[] for _ in range(wheel_slots)]
        self._wheel_len = 0  # entries in buckets, tombstones included
        self._cursor = 0  # absolute bucket index being (or next to be) processed
        self._overflow: list[tuple[float, int, Event]] = []
        # Transient per-run() structures for the bucket in flight.
        self._local: list[tuple[float, int, Event]] | None = None
        self._local_bucket = -1
        self._run_batch: deque[Event] = deque()
        self._run_time: float | None = None
        if tracer is not None:
            self.tracer = tracer

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue.

        Maintained incrementally (O(1)) — scheduling increments it,
        firing and cancellation decrement it.
        """
        return self._pending

    @property
    def queue_len(self) -> int:
        """Entries currently held in queue structures, tombstones included.

        ``queue_len - pending`` is the tombstone count; the compaction
        regression tests assert it stays bounded under cancel-heavy
        workloads.
        """
        n = self._wheel_len + len(self._overflow) + len(self._run_batch)
        if self._local is not None:
            n += len(self._local)
        return n

    @property
    def tracer(self) -> Tracer | None:
        """The attached structured tracer, if any."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer | None) -> None:
        if tracer is not None and tracer.clock is None:
            tracer.clock = lambda: self._now
        self._tracer = tracer

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` ticks from now.

        ``delay`` may be zero (fires after already-queued events at the
        current instant) but not negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._insert(self._now + delay, callback, label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``.

        The event fires at exactly ``time`` — not ``now + (time - now)``,
        which can round an ulp below it and so ahead of an event already
        queued for ``time`` (the network's per-channel FIFO floor hands
        in such times).  ``time == now`` expressed through a
        differently-accumulated float sum can come out an epsilon
        *below* ``now``; such times are clamped to ``now`` instead of
        raising, so long runs do not crash on harmless drift.
        """
        if time < self._now:
            if self._now - time > _PAST_EPSILON * (abs(self._now) + 1.0):
                raise SimulationError(
                    f"cannot schedule in the past (delay={time - self._now})"
                )
            time = self._now
        return self._insert(time, callback, label)

    def _insert(
        self, time: float, callback: Callable[[], None], label: str
    ) -> EventHandle:
        event = Event(time, self._seq, callback, label)
        self._seq += 1
        self._pending += 1
        self._wheel_insert(event)
        return EventHandle(event, on_cancel=self._on_cancel)

    def schedule_recurring(
        self,
        interval: float,
        callback: Callable[[], None],
        until: float,
        label: str = "",
    ) -> EventHandle:
        """Fire ``callback`` every ``interval`` ticks, bounded by ``until``.

        The first firing is at ``now + interval``; the chain re-arms
        itself only while the *next* firing would still be at or before
        ``until``, so a quiesce (``run()`` with no horizon) always
        drains — an unbounded self-rescheduling event would keep the
        queue non-empty forever.  Cancelling the returned handle stops
        the chain only until the first firing; periodic consumers that
        need mid-run shutdown should guard inside the callback.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        if self._now + interval > until:
            raise SimulationError(
                f"recurring horizon {until} is before the first firing "
                f"at {self._now + interval}"
            )

        def fire() -> None:
            callback()
            if self._now + interval <= until:
                self.schedule(interval, fire, label)

        return self.schedule(interval, fire, label)

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> None:
        """Fire events until the queue drains or ``until`` is passed.

        Events scheduled exactly at ``until`` still fire.  The
        ``max_events`` guard turns accidental event loops (a callback
        that reschedules itself at delay zero, say, or a retransmit
        timer that never stops re-arming) into a loud
        :class:`SimulationError` instead of a hang; the error reports
        the most frequent labels among the last events fired so the
        looping component is identifiable from the message alone.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from a callback")
        self._running = True
        try:
            try:
                self._run_wheel(until, max_events)
            finally:
                # Rebase on every exit (drain, ``until``, or an
                # exception out of a callback): park any still-
                # bucketed events in the time-keyed overflow heap
                # and realign the cursor with the clock.  This keeps
                # the wheel's one invariant — every bucketed event's
                # index lies in [cursor, cursor + slots) — without
                # special-casing how the loop stopped.
                if until is not None and self._now < until:
                    self._now = until
                self._rebase_wheel()
        finally:
            self._running = False

    def advance_to(self, time: float) -> None:
        """Run all events up to and including ``time``, then set the clock.

        Convenience for experiments that interleave scripted phases
        ("run the workload until t=500, then heal the partition").
        """
        if time < self._now:
            raise SimulationError(
                f"cannot advance backwards (now={self._now}, target={time})"
            )
        self.run(until=time)

    # -- wheel core -------------------------------------------------------

    def _wheel_insert(self, event: Event) -> None:
        time = event.time
        if time == self._run_time:
            # Same-instant traffic (zero-delay loopback, install
            # cascades): joins the in-flight run with a plain append.
            self._run_batch.append(event)
            return
        index = int(time / self._width)
        if index == self._local_bucket:
            # Later event inside the bucket currently being processed.
            heapq.heappush(self._local, (time, event.seq, event))
            return
        if index < self._cursor + self._slots:
            self._wheel[index % self._slots].append(event)
            self._wheel_len += 1
        else:
            heapq.heappush(self._overflow, (time, event.seq, event))

    def _run_wheel(self, until: float | None, max_events: int) -> None:
        budget = max_events
        # Labels of recently fired events, recorded only once the
        # budget is nearly spent so the normal path pays nothing.
        recent: list[str] | None = None
        width = self._width
        slots = self._slots
        wheel = self._wheel
        run_batch = self._run_batch
        while True:
            # -- pick the next bucket to process --------------------------
            overflow = self._overflow
            if self._wheel_len == 0:
                # Skip cancelled far timers so they cannot hide the
                # true next event (or keep an empty run spinning).
                while overflow and overflow[0][2].cancelled:
                    heapq.heappop(overflow)
                    self._cancelled -= 1
                if not overflow:
                    return
                bucket = int(overflow[0][0] / width)
                if bucket < self._cursor:
                    bucket = self._cursor
            else:
                bucket = self._cursor
                while not wheel[bucket % slots]:
                    bucket += 1
                # A far timer already migrated past?  Overflow entries
                # are strictly beyond the horizon at insert time, but
                # the cursor may since have advanced toward them.
                while overflow and overflow[0][2].cancelled:
                    heapq.heappop(overflow)
                    self._cancelled -= 1
                if overflow:
                    over_bucket = int(overflow[0][0] / width)
                    if over_bucket < bucket:
                        bucket = over_bucket
            self._cursor = bucket
            bucket_end = (bucket + 1) * width
            # -- gather the bucket: wheel slot + matured far timers -------
            slot = wheel[bucket % slots]
            if slot:
                wheel[bucket % slots] = []
                self._wheel_len -= len(slot)
                local = [
                    (event.time, event.seq, event)
                    for event in slot
                    if not event.cancelled
                ]
                self._cancelled -= len(slot) - len(local)
            else:
                local = []
            while overflow and overflow[0][0] < bucket_end:
                entry = heapq.heappop(overflow)
                if entry[2].cancelled:
                    self._cancelled -= 1
                else:
                    local.append(entry)
            if not local:
                self._cursor = bucket + 1
                continue
            heapq.heapify(local)
            self._local = local
            self._local_bucket = bucket
            try:
                # -- fire the bucket in (time, seq) order -----------------
                while local:
                    run_time = local[0][0]
                    if until is not None and run_time > until:
                        return  # leftovers restored by finally
                    while local and local[0][0] == run_time:
                        run_batch.append(heapq.heappop(local)[2])
                    self._run_time = run_time
                    self._now = run_time
                    while run_batch:
                        event = run_batch.popleft()
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        event.fired = True
                        self._pending -= 1
                        self._fired += 1
                        tracer = self._tracer
                        if tracer is not None and tracer.enabled:
                            every = self.fire_trace_every
                            if every <= 1 or self._fired % every == 0:
                                tracer.emit(SIM_FIRE, label=event.label)
                        if recent is None and budget <= 2048:
                            recent = []
                        if recent is not None:
                            recent.append(event.label or "<unlabelled>")
                        event.callback()
                        budget -= 1
                        if budget <= 0:
                            self._raise_exhausted(max_events, recent)
                    self._run_time = None
            finally:
                self._run_time = None
                self._local = None
                self._local_bucket = -1
                leftovers = wheel[bucket % slots]
                for _t, _s, event in local:
                    leftovers.append(event)
                    self._wheel_len += 1
                for event in run_batch:
                    leftovers.append(event)
                    self._wheel_len += 1
                run_batch.clear()
            self._cursor = bucket + 1

    # -- internals --------------------------------------------------------

    def _rebase_wheel(self) -> None:
        """Park all bucketed events in the overflow heap and realign the
        cursor with the clock.

        Called whenever a ``run()`` returns.  Between runs the only
        invariant that matters is "every queued event is keyed by its
        absolute time"; the overflow heap provides it unconditionally,
        and the next run migrates events back into buckets as the wheel
        reaches them.  Without this, a premature exit (``until`` hit,
        budget exhausted, a callback raising) can leave the cursor ahead
        of the clock, where a later zero-delay insert would land in a
        bucket the scan has already passed.
        """
        if self._wheel_len:
            overflow = self._overflow
            for index, slot in enumerate(self._wheel):
                if not slot:
                    continue
                for event in slot:
                    if event.cancelled:
                        self._cancelled -= 1
                    else:
                        heapq.heappush(
                            overflow, (event.time, event.seq, event)
                        )
                self._wheel[index] = []
            self._wheel_len = 0
        self._cursor = int(self._now / self._width)

    def _raise_exhausted(self, max_events: int, recent: list[str] | None) -> None:
        top = ", ".join(
            f"{label!r} x{count}"
            for label, count in Counter(recent or ()).most_common(5)
        )
        raise SimulationError(
            f"exceeded max_events={max_events}; probable event"
            f" loop (most frequent recent events: {top})"
        )

    def _on_cancel(self) -> None:
        self._pending -= 1
        self._cancelled += 1
        # Tombstone compaction: once cancelled entries outnumber live
        # ones (retransmit timers cancel by the thousands under chaos),
        # rebuild the queue structures without them so memory tracks the
        # live event count instead of the cancellation history.
        if self._cancelled > _COMPACT_MIN and self._cancelled > self._pending:
            self._compact()

    def _compact(self) -> None:
        removed = 0
        for index, slot in enumerate(self._wheel):
            if not slot:
                continue
            live_slot = [event for event in slot if not event.cancelled]
            dropped = len(slot) - len(live_slot)
            if dropped:
                self._wheel[index] = live_slot
                self._wheel_len -= dropped
                removed += dropped
        live_over = [
            entry for entry in self._overflow if not entry[2].cancelled
        ]
        removed += len(self._overflow) - len(live_over)
        heapq.heapify(live_over)
        self._overflow = live_over
        # The transient run/local structures are left alone: they are
        # drained within the current bucket anyway, and their tombstones
        # keep their _cancelled accounting until popped.
        self._cancelled -= removed
