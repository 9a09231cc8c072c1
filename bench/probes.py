"""Timing wrappers around the public entry points of each layer.

The traced run installs these *from the benchmark*, on the classes,
before the system under test is built; the program's source is not
edited.  Each wrapped call records one span: probe name, start, end,
the span that caused it and the root request it belongs to.  A span's
self time is its duration minus the time its child spans cover, so the
self times of one request's spans add up to the request's root span.

A probe whose module, class or method no longer exists is skipped and
named in :attr:`SpanRecorder.missing`; it never fails the run.  That is
what lets a later change fold one class into another without editing
the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from typing import Any, Callable

#: Raw spans kept for ``bench_trace.json``; totals are kept for all.
RAW_SPAN_CAP = 20000

#: (probe name, module, class, method).  The probe name's first segment
#: is the layer; per-layer metrics sum the self time of the probes they
#: list (see ``bench.metrics``).
PROBES: tuple[tuple[str, str, str, str], ...] = (
    ("serve.submit_write", "repro.serve.app", "FrontDoor", "submit_write"),
    ("serve.submit_read", "repro.serve.app", "FrontDoor", "submit_read"),
    ("core.submit_update", "repro.core.system", "FragmentedDatabase",
     "submit_update"),
    ("core.submit_readonly", "repro.core.system", "FragmentedDatabase",
     "submit_readonly"),
    ("cc.scheduler.submit", "repro.cc.scheduler", "LocalScheduler", "submit"),
    ("cc.scheduler.submit_quasi", "repro.cc.scheduler", "LocalScheduler",
     "submit_quasi"),
    ("cc.locks.acquire", "repro.cc.locks", "LockTable", "acquire"),
    ("cc.locks.release_all", "repro.cc.locks", "LockTable", "release_all"),
    ("storage.wal.append_install", "repro.storage.wal", "WriteAheadLog",
     "append_install"),
    ("storage.store.install", "repro.storage.store", "ObjectStore",
     "install"),
    ("replication.pipeline.submit", "repro.replication.pipeline",
     "ReplicationPipeline", "submit"),
    ("replication.pipeline.deliver", "repro.replication.pipeline",
     "ReplicationPipeline", "deliver"),
    ("replication.batcher.submit", "repro.replication.batch", "QtBatcher",
     "submit"),
    ("replication.batcher.flush", "repro.replication.batch", "QtBatcher",
     "flush"),
    ("replication.apply.enqueue", "repro.replication.apply",
     "FragmentApplyQueue", "enqueue"),
    ("replication.quorum.begin_read", "repro.replication.quorum",
     "QuorumReadManager", "begin_read"),
    ("replication.quorum.on_request", "repro.replication.quorum",
     "QuorumReadManager", "_on_request"),
    ("replication.quorum.on_reply", "repro.replication.quorum",
     "QuorumReadManager", "_on_reply"),
    ("net.broadcast.multicast", "repro.net.broadcast", "ReliableBroadcast",
     "multicast"),
    ("net.broadcast.handle_message", "repro.net.broadcast",
     "ReliableBroadcast", "handle_message"),
    ("net.reliable.on_send", "repro.net.reliable", "ReliableTransport",
     "on_send"),
    ("net.reliable.intercept", "repro.net.reliable", "ReliableTransport",
     "intercept"),
    ("runtime.codec.encode_frame", "repro.runtime.codec", "WireCodec",
     "encode_frame"),
    ("runtime.codec.decode_frame", "repro.runtime.codec", "WireCodec",
     "decode_frame"),
)

#: The cross-thread hand-off from an HTTP worker to the loop thread.
HANDOFF = ("serve.handoff", "repro.core.system", "FragmentedDatabase",
           "call_on_runtime")


def _txn_of(value: Any) -> str | None:
    """The transaction id a probed call's result carries, if any."""
    spec = getattr(value, "spec", None)  # RequestTracker
    if spec is not None:
        return getattr(spec, "txn_id", None)
    if isinstance(value, tuple) and len(value) == 2:  # (status, body)
        body = value[1]
        if isinstance(body, dict):
            return body.get("txn")
    return None


class _Frame:
    """One open span on a thread's stack."""

    __slots__ = ("span_id", "root_id", "child_time")

    def __init__(self, span_id: int, root_id: int) -> None:
        self.span_id = span_id
        self.root_id = root_id
        self.child_time = 0.0


class SpanRecorder:
    """Installs the probes and keeps the spans they record, in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._installed: list[tuple[type, str, Any]] = []
        #: name -> [calls, total seconds, self seconds, self seconds of
        #: the spans whose root is a front-door request]
        self.totals: dict[str, list[float]] = {}
        self._request_roots: set[int] = set()
        self.raw: list[tuple] = []
        self.dropped_raw = 0
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self,
        name: str,
        frame: _Frame,
        parent: _Frame | None,
        start: float,
        end: float,
        txn: str | None,
    ) -> None:
        duration = end - start
        self_time = duration - frame.child_time
        if parent is not None:
            parent.child_time += duration
        in_request = frame.root_id in self._request_roots
        with self._lock:
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += self_time
            if in_request:
                total[3] += self_time
            if len(self.raw) < RAW_SPAN_CAP:
                self.raw.append((
                    frame.span_id,
                    parent.span_id if parent is not None else 0,
                    frame.root_id,
                    name,
                    start,
                    end,
                    self_time,
                    txn,
                ))
            else:
                self.dropped_raw += 1

    def _wrap(self, name: str, fn: Callable, request_root: bool) -> Callable:
        recorder = self

        def probe(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            frame = _Frame(span_id, parent.root_id if parent else span_id)
            if request_root and parent is None:
                recorder._request_roots.add(span_id)
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder._record(
                    name, frame, parent, start, end, _txn_of(result)
                )

        probe.__wrapped__ = fn  # type: ignore[attr-defined]
        return probe

    def _wrap_handoff(self, name: str, fn: Callable) -> Callable:
        """``call_on_runtime(self, fn, ...)``: carry the span across threads.

        The callable runs on the loop thread; it is wrapped so spans it
        opens there name the hand-off span as their parent and the
        request as their root.  The hand-off's self time is then the
        wait for the loop thread, not the work done on it.
        """
        recorder = self

        def probe(db: Any, call: Callable, *args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            frame = _Frame(span_id, parent.root_id if parent else span_id)

            def on_runtime() -> Any:
                remote = recorder._stack()
                remote.append(frame)
                try:
                    return call()
                finally:
                    remote.pop()

            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(db, on_runtime, *args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder._record(name, frame, parent, start, end, None)

        probe.__wrapped__ = fn  # type: ignore[attr-defined]
        return probe

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every probe target that still exists."""
        for name, module, cls_name, method in (*PROBES, HANDOFF):
            try:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[method]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if name == HANDOFF[0]:
                wrapped = self._wrap_handoff(name, original)
            else:
                wrapped = self._wrap(
                    name, original, request_root=name.startswith("serve.")
                )
            setattr(cls, method, wrapped)
            self._installed.append((cls, method, original))

    def uninstall(self) -> None:
        """Put the original methods back."""
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)

    # -- report ----------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Totals by probe, the raw spans kept, and the probes skipped."""
        with self._lock:
            return {
                "totals": {
                    name: {
                        "calls": int(t[0]),
                        "total_s": t[1],
                        "self_s": t[2],
                        "request_self_s": t[3],
                    }
                    for name, t in sorted(self.totals.items())
                },
                "span_fields": [
                    "id", "parent", "root", "name", "start", "end",
                    "self_s", "txn",
                ],
                "spans": [list(span) for span in self.raw],
                "spans_dropped": self.dropped_raw,
                "missing": list(self.missing),
            }
