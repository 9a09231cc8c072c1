"""The system under test, in a process of its own.

``python3 -m bench.cluster`` boots the served system exactly as
``repro serve`` builds it — 5 nodes on the asyncio backend,
``replication_factor=3``, ``AvailabilityConfig()`` defaults,
``tick=0.01``, ring tracer on, supervisor armed, no fault proxy (so
inter-node delay is loopback only) — fronted by a ``FrontDoor`` on an
ephemeral port.  The load generator lives in the parent process, so
the cluster's CPU time (``getrusage``) is the program's alone.

The parent talks to this process over its stdin/stdout, one JSON
object per line: counter snapshots, kill/revive, the final replica
state, the trace audit, and a clean stop.  Nothing else is written to
stdout; warnings land on stderr, which the parent captures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from bench import procstat
from bench.probes import SpanRecorder

NODES = 5
REPLICATION_FACTOR = 3
TICK = 0.01
FRAGMENTS = 8
OBJECTS = 16

#: Histogram families the parent reads (tick-valued; it scales by TICK).
HISTOGRAM_PREFIXES = ("pipeline.", "avail.mttr")

#: Gauges that must read zero before replicas are compared or the
#: runtime is stopped.
QUIET_GAUGES = (
    "tcp.outbox_now",
    "replication.pending_now",
    "retrans.unacked_now",
    "quorum.pending_now",
)


def object_name(fragment: int, index: int) -> str:
    return f"f{fragment}o{index}"


def build(trace_path: str | None):
    """The ``repro serve`` construction, with more fragments and objects."""
    from repro import FragmentedDatabase, FrontDoor
    from repro.availability import AvailabilityConfig

    names = [f"N{i}" for i in range(NODES)]
    db = FragmentedDatabase(
        names,
        runtime="asyncio",
        tick=TICK,
        replication_factor=REPLICATION_FACTOR,
        availability=AvailabilityConfig(),
    )
    initial = {}
    for f in range(FRAGMENTS):
        db.add_agent(f"ag{f}", home_node=names[f % NODES])
        objs = [object_name(f, i) for i in range(OBJECTS)]
        db.add_fragment(f"F{f}", agent=f"ag{f}", objects=objs)
        initial.update({obj: 0 for obj in objs})
    db.load(initial)
    db.finalize()
    db.enable_tracing(path=trace_path)
    db.start_runtime()
    db.call_on_runtime(lambda: db.availability.start(until=10_000_000.0))
    door = FrontDoor(db, host="127.0.0.1", port=0).start()
    return db, door


class Cluster:
    """Answers the parent's commands against one live database."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.recorder: SpanRecorder | None = None
        if args.probes:
            self.recorder = SpanRecorder()
            self.recorder.install()
        self.trace_path = args.trace_jsonl or None
        self.db, self.door = build(self.trace_path)

    # -- commands --------------------------------------------------------

    def hello(self) -> dict[str, Any]:
        return {"port": self.door.port, "catalog": self.door.fragments_payload()}

    def snapshot(self) -> dict[str, Any]:
        """Counters the program already exports, plus process usage."""
        db = self.db
        snap = db.metrics.snapshot()
        codec = getattr(db.network, "codec", None)
        return {
            "t": time.monotonic(),
            "cpu_s": procstat.cpu_seconds(),
            "peak_rss_kb": procstat.peak_rss_kb(),
            "counters": snap["counters"],
            "gauges": {
                name: value
                for name, value in snap["gauges"].items()
                if isinstance(value, (int, float))
            },
            "histograms": {
                name: summary
                for name, summary in snap["histograms"].items()
                if name.startswith(HISTOGRAM_PREFIXES)
            },
            "wal_appends": sum(n.wal.appends for n in db.nodes.values()),
            # Lock tables are rebuilt by a crash, so this one can step back.
            "lock_waits": sum(
                n.scheduler.locks.waits for n in db.nodes.values()
            ),
            "trace_events": db.tracer.emitted,
            "pickle_fallbacks": getattr(codec, "pickle_fallbacks", None),
        }

    def usage(self) -> dict[str, Any]:
        """CPU time so far; cheap enough to sample during the window."""
        return {"t": time.monotonic(), "cpu_s": procstat.cpu_seconds()}

    def kill(self, agent: str) -> dict[str, Any]:
        """Hard-kill the node that is the agent's home right now."""
        db = self.db

        def do() -> tuple[str, float]:
            node = db.agents[agent].home_node
            db.hard_kill_node(node)
            return node, time.monotonic()

        node, at = db.call_on_runtime(do)
        return {"node": node, "t": at}

    def revive(self, node: str) -> dict[str, Any]:
        self.db.call_on_runtime(lambda: self.db.hard_revive_node(node))
        return {"t": time.monotonic()}

    def _quiet(self) -> bool:
        gauges = self.db.metrics.snapshot()["gauges"]
        return all(gauges.get(name, 0) == 0 for name in QUIET_GAUGES)

    def _replicas(self) -> dict[str, dict[str, dict[str, Any]]]:
        db = self.db
        out: dict[str, dict[str, dict[str, Any]]] = {}
        for fragment in db.catalog.names:
            objects = sorted(db.catalog.get(fragment).objects)
            out[fragment] = {
                node: {
                    obj: db.nodes[node].store.read(obj)
                    for obj in objects
                    if db.nodes[node].store.exists(obj)
                }
                for node in db.replica_set(fragment)
            }
        return out

    def final(self, timeout: float) -> dict[str, Any]:
        """Wait for quiescence, then report every replica's values."""
        db = self.db
        deadline = time.monotonic() + timeout
        replicas: dict[str, Any] = {}
        agree = False
        while True:
            quiet = db.call_on_runtime(self._quiet)
            replicas = db.call_on_runtime(self._replicas)
            agree = all(
                len({json.dumps(v, sort_keys=True) for v in nodes.values()})
                == 1
                for nodes in replicas.values()
            )
            if (quiet and agree) or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        return {
            "quiet": quiet,
            "replicas_agree": agree,
            "replicas": replicas,
            "orphaned": sorted(db.recorder.orphaned),
            "runtime_errors": [
                f"{label}: {exc!r}" for label, exc in db.sim.errors
            ],
        }

    def audit(self) -> dict[str, Any]:
        """All eight checks of the lineage auditor over the live trace."""
        from repro.analysis.audit import audit_events
        from repro.obs.availability import account_events

        self.db.tracer.close()
        if self.trace_path is None:
            events = [e.as_dict() for e in self.db.tracer.events()]
        else:
            with open(self.trace_path, encoding="utf-8") as handle:
                events = [json.loads(line) for line in handle if line.strip()]
        report = audit_events(events)
        return {
            "ok": report.ok,
            "violations": report.violation_count,
            "events": len(events),
            "mttd_ticks": account_events(events).summary()["mttd_mean"],
        }

    def spans(self) -> dict[str, Any]:
        if self.recorder is None:
            return {"totals": {}, "spans": [], "missing": []}
        return self.recorder.report()

    def stop(self) -> dict[str, Any]:
        """Drain the TCP outboxes, then stop door, tracer and runtime."""
        db = self.db
        drained = db.wait_until(
            lambda: db.metrics.value("tcp.outbox_now") == 0, timeout=10.0
        )
        self.door.stop()
        db.tracer.close()
        db.stop_runtime()
        return {"drained": bool(drained)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.cluster")
    parser.add_argument("--probes", type=int, default=0)
    parser.add_argument("--trace-jsonl", default="")
    args = parser.parse_args(argv)

    # The protocol owns stdout; anything the program prints goes to
    # stderr with the warnings.
    out = sys.stdout
    sys.stdout = sys.stderr
    cluster = Cluster(args)

    def reply(payload: dict[str, Any]) -> None:
        out.write(json.dumps(payload, default=str) + "\n")
        out.flush()

    commands = {
        "snapshot": cluster.snapshot,
        "usage": cluster.usage,
        "kill": cluster.kill,
        "revive": cluster.revive,
        "final": cluster.final,
        "audit": cluster.audit,
        "spans": cluster.spans,
    }
    reply(cluster.hello())
    for line in sys.stdin:
        request = json.loads(line)
        op = request.pop("op")
        if op == "stop":
            reply(cluster.stop())
            return 0
        reply(commands[op](**request))
    # The parent went away without a stop: leave quietly.
    cluster.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
