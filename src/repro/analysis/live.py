"""The live system: asyncio backend + HTTP front door, driven and killed.

Everything the simulator-backed experiments measure runs here on real
clocks and sockets instead: the same protocol stack on the asyncio
runtime (real TCP between nodes), fronted by the HTTP
:class:`~repro.serve.app.FrontDoor`, driven by concurrent HTTP clients.

* :func:`build_system` boots that stack — ``repro serve`` serves it
  until Ctrl-C.
* :func:`run_live_chaos` is ``repro chaos --backend=asyncio``: the
  simulator's seeded :class:`~repro.net.faults.FaultPlan` drops and
  duplicates frames on the real sockets, one agent home is hard-killed
  (crash behind the mesh's ``down_guard``, links left up)
  mid-workload, and the bar is the simulator nemesis's: every client
  write commits — via the front door's queue-and-retry riding the
  supervisor's failover — and the §4.4 audit over the captured live
  trace is clean.

Throughput and latency of this path are the benchmark's business
(``python3 -m bench``, workloads ``http_*``), not this module's.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Any

from repro.analysis.audit import audit_events
from repro.availability import AvailabilityConfig
from repro.core.system import FragmentedDatabase
from repro.net.faults import FaultPlan
from repro.serve import FrontDoor

#: Default workload shape.
DEFAULT_NODES = 5
DEFAULT_FRAGMENTS = 2
DEFAULT_UPDATES = 40
DEFAULT_FACTOR = 3
DEFAULT_CLIENTS = 4
DEFAULT_TICK = 0.01


def build_system(
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    factor: int = DEFAULT_FACTOR,
    tick: float = DEFAULT_TICK,
    faults: FaultPlan | None = None,
    seed: int = 0,
    trace_path: str | None = None,
    trace_append: bool = False,
    trace_run: str | None = None,
) -> FragmentedDatabase:
    """One asyncio-backed database, supervisor armed, tracing on."""
    names = [f"N{i}" for i in range(nodes)]
    db = FragmentedDatabase(
        names,
        runtime="asyncio",
        tick=tick,
        replication_factor=factor,
        availability=AvailabilityConfig(),
        faults=faults,
        seed=seed,
    )
    for i in range(fragments):
        home = names[i % nodes]
        db.add_agent(f"ag{i}", home_node=home)
        db.add_fragment(f"F{i}", agent=f"ag{i}", objects=[f"x{i}"])
    db.load({f"x{i}": 0 for i in range(fragments)})
    db.finalize()
    db.enable_tracing(
        path=trace_path,
        append=trace_append,
        context={"run": trace_run} if trace_run else None,
    )
    return db


def _post(
    base: str, path: str, payload: dict, timeout: float = 60.0
) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _drive_workload(
    db: FragmentedDatabase,
    door: FrontDoor,
    updates: int,
    fragments: int,
    clients: int,
) -> dict[str, Any]:
    """Fire ``updates`` HTTP writes from ``clients`` threads, with a kill.

    Agent 0's home node is hard-killed (crash behind ``down_guard``,
    topology untouched) once a third of the updates have committed, and
    revived after two thirds — the middle third must ride the
    supervisor's failover via front-door retries.
    """
    base = door.url
    outcomes: list[tuple[int, dict]] = []
    record_lock = threading.Lock()
    committed_so_far = threading.Semaphore(0)

    def client(worker: int) -> None:
        for i in range(worker, updates, clients):
            obj = f"x{i % fragments}"
            code, body = _post(base, "/updates", {"object": obj, "delta": 1})
            with record_lock:
                outcomes.append((code, body))
            if code == 200:
                committed_so_far.release()

    def killer() -> None:
        victim = db.agents["ag0"].home_node
        for _ in range(updates // 3):
            committed_so_far.acquire()
        db.call_on_runtime(lambda: db.hard_kill_node(victim))
        # Hold the victim down until the supervisor actually re-homes
        # the agent — reviving earlier would let recovery race the
        # failover and the run would never exercise it.
        deadline = time.monotonic() + 60.0
        while (
            db.agents["ag0"].home_node == victim
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        for _ in range(updates // 3):
            committed_so_far.acquire()
        db.call_on_runtime(lambda: db.hard_revive_node(victim))

    threads = [
        threading.Thread(target=client, args=(w,), daemon=True)
        for w in range(clients)
    ]
    threads.append(threading.Thread(target=killer, daemon=True))
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    elapsed = time.perf_counter() - wall_start

    committed = sum(1 for code, _ in outcomes if code == 200)
    failures = [body for code, body in outcomes if code != 200]
    return {
        "submitted": updates,
        "committed": committed,
        "failures": failures[:5],  # first few, for the report
        "elapsed_s": round(elapsed, 3),
        "throughput_ups": round(committed / elapsed, 1) if elapsed else 0.0,
        "retries": db.metrics.value("http.updates_retried"),
    }


def run_live_chaos(
    faults: FaultPlan,
    seed: int = 0,
    trace_path: str | None = None,
    trace_append: bool = False,
) -> dict:
    """Chaos on the real backend: seeded message faults + a hard kill.

    ``faults`` is injected by the same
    :class:`~repro.net.faults.FaultInjector` as in the simulator, drawn
    from the database's ``seed``; one agent home is hard-killed and
    revived mid-run.  The guarantee bar is the same as the simulator
    nemesis: every client update commits, the kill is carried by a
    supervisor failover, and the §4.4 audit over the captured trace is
    clean.
    """
    db = build_system(
        faults=faults,
        seed=seed,
        trace_path=trace_path,
        trace_append=trace_append,
        trace_run=f"live@{seed}",
    )
    db.start_runtime()
    try:
        db.call_on_runtime(lambda: db.availability.start(until=10_000_000.0))
        with FrontDoor(db, deadline=90.0) as door:
            workload = _drive_workload(
                db, door, DEFAULT_UPDATES, DEFAULT_FRAGMENTS, DEFAULT_CLIENTS
            )
        db.wait_until(
            lambda: db.network.metrics.value("tcp.outbox_now") == 0,
            timeout=30.0,
        )
        time.sleep(0.5)
        report = audit_events(e.as_dict() for e in db.tracer.events())
        value = db.metrics.value
        stats = {
            "dropped": value("fault.messages_dropped"),
            "duplicated": value("fault.messages_duplicated"),
            "dropped_down": value("tcp.frames_dropped_down"),
            "retransmits": value("retrans.resent"),
            "failovers": value("avail.failovers"),
        }
    finally:
        db.tracer.close()
        db.stop_runtime()
    db.sim.check()
    return {
        "backend": "asyncio",
        "seed": seed,
        "loss_rate": faults.loss_rate,
        "dup_rate": faults.dup_rate,
        "audit_ok": report.ok,
        "audit_violations": report.violation_count,
        "respects_guarantees": (
            workload["committed"] == workload["submitted"]
            and stats["failovers"] >= 1
            and report.ok
        ),
        **stats,
        **workload,
    }
