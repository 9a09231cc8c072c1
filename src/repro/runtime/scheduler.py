"""AsyncioScheduler: the Simulator surface over a real event loop.

The protocol stack schedules everything — retransmit timers, heartbeat
probes, batch windows, quorum deadlines — through the five-method
surface of :class:`~repro.sim.simulator.Simulator` (``now``,
``schedule``, ``schedule_at``, ``schedule_recurring``, cancellation
handles).  This class implements the same surface over a real asyncio
loop running in a dedicated thread, so the stack runs unmodified in
real time.

**Tick scaling.**  Protocol constants are expressed in simulator ticks
(default link latency 1.0, retransmit RTO 4.0, heartbeat 5.0).  The
scheduler maps one tick to ``tick`` real seconds (default 0.05), so
``now`` still reads in ticks and every delay keeps its meaning — a
4-tick RTO becomes 200 ms of wall time — and a whole experiment's
timescale turns on one knob.

**Thread model.**  All scheduled callbacks fire on the loop thread;
the protocol stack therefore stays effectively single-threaded, exactly
as under the simulator.  ``schedule``/``cancel`` may be called from any
thread (other threads marshal through :meth:`call_soon`,
:meth:`invoke` and :meth:`run_coroutine`); bookkeeping that must be
exact (the pending count) settles on the loop thread.

**Failure visibility.**  The simulator propagates a callback exception
out of ``run()``.  A loop callback has no such caller, so exceptions
are captured into :attr:`errors` (and re-raised by :meth:`check`,
which harnesses call after a run) — never swallowed silently.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from collections.abc import Callable, Coroutine
from typing import Any

from repro.errors import SimulationError
from repro.obs.trace import Tracer

#: Poll period for cross-thread waits (run(), wait_until()).
_POLL = 0.01


class _AsyncHandle:
    """Cancellation handle mirroring :class:`~repro.sim.events.EventHandle`."""

    __slots__ = ("_scheduler", "_time", "_label", "_cancelled", "_fired",
                 "_settled", "_timer")

    def __init__(self, scheduler: "AsyncioScheduler", time: float, label: str):
        self._scheduler = scheduler
        self._time = time
        self._label = label
        self._cancelled = False
        self._fired = False
        self._settled = False
        self._timer: asyncio.TimerHandle | None = None

    @property
    def time(self) -> float:
        return self._time

    @property
    def label(self) -> str:
        return self._label

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; no-op after fire."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        self._scheduler._cancel(self)


class _RecurringHandle:
    """Cancellation handle for a recurring chain (stops re-arming too)."""

    __slots__ = ("_current", "_cancelled", "label")

    def __init__(self, label: str) -> None:
        self._current: _AsyncHandle | None = None
        self._cancelled = False
        self.label = label

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        if self._current is not None:
            self._current.cancel()


class AsyncioScheduler:
    """Real-time scheduler satisfying the Simulator's duck type."""

    def __init__(self, tick: float = 0.05) -> None:
        if tick <= 0:
            raise SimulationError(f"tick must be positive (got {tick})")
        self.tick = tick
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._thread_id: int | None = None
        self._origin = 0.0
        self._count_lock = threading.Lock()
        self._pending = 0
        self._fired = 0
        self._tracer: Tracer | None = None
        self.errors: list[tuple[str, BaseException]] = []
        self._started = threading.Event()

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._loop is not None

    def start(self) -> None:
        """Boot the loop thread; idempotent."""
        if self._loop is not None:
            return
        self._loop = asyncio.new_event_loop()
        self._started.clear()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-runtime", daemon=True
        )
        self._thread.start()
        self._started.wait()

    def _run_loop(self) -> None:
        loop = self._loop
        assert loop is not None
        asyncio.set_event_loop(loop)
        self._thread_id = threading.get_ident()
        self._origin = loop.time()
        loop.call_soon(self._started.set)
        loop.run_forever()

    def stop(self) -> None:
        """Stop the loop and join its thread; idempotent."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        loop.close()
        self._loop = None
        self._thread = None
        self._thread_id = None

    def check(self) -> None:
        """Raise the first captured callback exception, if any."""
        if self.errors:
            label, exc = self.errors[0]
            raise SimulationError(
                f"{len(self.errors)} runtime callback(s) raised; first "
                f"({label or 'unlabelled'}): {exc!r}"
            ) from exc

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current time in ticks (0.0 before :meth:`start`)."""
        loop = self._loop
        if loop is None:
            return 0.0
        return (loop.time() - self._origin) / self.tick

    @property
    def events_fired(self) -> int:
        return self._fired

    @property
    def pending(self) -> int:
        return self._pending

    @property
    def queue_len(self) -> int:
        return self._pending

    @property
    def tracer(self) -> Tracer | None:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer | None) -> None:
        if tracer is not None and tracer.clock is None:
            tracer.clock = lambda: self.now
        self._tracer = tracer

    # -- thread marshaling ----------------------------------------------

    def _on_loop_thread(self) -> bool:
        return threading.get_ident() == self._thread_id

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is None:
            raise SimulationError(
                "runtime not started: call start() (or "
                "FragmentedDatabase.start_runtime()) first"
            )
        return loop

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread, fire-and-forget."""
        if self._on_loop_thread():
            fn()
            return
        self._require_loop().call_soon_threadsafe(fn)

    def invoke(self, fn: Callable[[], Any], timeout: float = 30.0) -> Any:
        """Run ``fn`` on the loop thread and return its result.

        From the loop thread itself this runs inline (so protocol
        callbacks may use helpers that also serve other threads).
        """
        if self._on_loop_thread():
            return fn()
        future: concurrent.futures.Future = concurrent.futures.Future()

        def runner() -> None:
            try:
                future.set_result(fn())
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                future.set_exception(exc)

        self._require_loop().call_soon_threadsafe(runner)
        return future.result(timeout=timeout)

    def run_coroutine(self, coro: Coroutine[Any, Any, Any],
                      timeout: float = 30.0) -> Any:
        """Run a coroutine on the loop from a foreign thread, blocking."""
        return asyncio.run_coroutine_threadsafe(
            coro, self._require_loop()
        ).result(timeout=timeout)

    # -- scheduling ------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> _AsyncHandle:
        """Schedule ``callback`` ``delay`` *ticks* from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        loop = self._require_loop()
        handle = _AsyncHandle(self, self.now + delay, label)
        with self._count_lock:
            self._pending += 1

        def arm() -> None:
            if handle._cancelled:
                self._settle(handle)
                return
            handle._timer = loop.call_later(
                delay * self.tick, self._fire, handle, callback
            )

        if self._on_loop_thread():
            arm()
        else:
            loop.call_soon_threadsafe(arm)
        return handle

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> _AsyncHandle:
        """Schedule at absolute tick ``time`` (clamped to now if past)."""
        return self.schedule(max(0.0, time - self.now), callback, label)

    def schedule_recurring(
        self,
        interval: float,
        callback: Callable[[], None],
        until: float,
        label: str = "",
    ) -> _RecurringHandle:
        """Fire every ``interval`` ticks while the next firing <= ``until``.

        Same contract as the simulator's, with one strengthening:
        cancelling the returned handle stops the chain at any point,
        not just before the first firing — a real-time backend must be
        able to shut periodic work down promptly.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        if self.now + interval > until:
            raise SimulationError(
                f"recurring horizon {until} is before the first firing "
                f"at {self.now + interval}"
            )
        chain = _RecurringHandle(label)

        def fire() -> None:
            callback()
            if not chain._cancelled and self.now + interval <= until:
                chain._current = self.schedule(interval, fire, label)

        chain._current = self.schedule(interval, fire, label)
        return chain

    # -- event internals (loop thread) ----------------------------------

    def _settle(self, handle: _AsyncHandle) -> bool:
        """Retire one handle's pending slot exactly once (loop thread)."""
        if handle._settled:
            return False
        handle._settled = True
        with self._count_lock:
            self._pending -= 1
        return True

    def _fire(self, handle: _AsyncHandle, callback: Callable[[], None]) -> None:
        if handle._cancelled:
            self._settle(handle)
            return
        if not self._settle(handle):
            return
        handle._fired = True
        self._fired += 1
        try:
            callback()
        except Exception as exc:  # noqa: BLE001 - surfaced via check()
            self.errors.append((handle._label, exc))
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.emit(
                    "runtime.callback_error",
                    label=handle._label,
                    error=repr(exc),
                )

    def _cancel(self, handle: _AsyncHandle) -> None:
        def do_cancel() -> None:
            if handle._fired:
                return
            if handle._timer is not None:
                handle._timer.cancel()
            self._settle(handle)

        if self._on_loop_thread():
            do_cancel()
        elif self._loop is not None:
            self._loop.call_soon_threadsafe(do_cancel)

    # -- blocking drivers (foreign threads) ------------------------------

    def run(self, until: float | None = None,
            max_events: int = 10_000_000) -> None:
        """Block the calling thread while the loop advances.

        With ``until``: sleep until the clock passes that tick.  Without
        (a quiesce): wait for the pending-timer count to reach zero —
        which only converges once periodic chains hit their horizons,
        exactly as under the simulator.  Raises any captured callback
        error when done.  Must not be called from the loop thread.
        """
        if self._on_loop_thread():
            raise SimulationError("run() called from a runtime callback")
        self._require_loop()
        import time as _time

        if until is not None:
            while self.now < until:
                _time.sleep(min(_POLL, (until - self.now) * self.tick))
        else:
            while self._pending > 0:
                _time.sleep(_POLL)
        self.check()

    def advance_to(self, time: float) -> None:
        """Alias of ``run(until=time)`` for harness compatibility."""
        self.run(until=time)

    def wait_until(
        self, predicate: Callable[[], bool], timeout: float = 30.0
    ) -> bool:
        """Poll ``predicate`` (on the loop thread) until true or timeout.

        Returns whether the predicate became true.  The predicate runs
        via :meth:`invoke` so it reads protocol state race-free.
        """
        import time as _time

        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            if self.invoke(predicate):
                return True
            _time.sleep(_POLL)
        return bool(self.invoke(predicate))

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"AsyncioScheduler({state}, tick={self.tick}, "
            f"now={self.now:.1f}, pending={self._pending})"
        )
