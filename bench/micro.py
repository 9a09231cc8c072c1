"""Isolated microbenchmarks: one layer, a fixed count, no cluster.

Each returns microseconds per operation (``frame_bytes`` returns
bytes).  A microbench whose target class or constructor no longer
exists returns ``None`` and is named in the ``missing`` list — it never
fails the run.
"""

from __future__ import annotations

import time
from typing import Any, Callable

ROUNDS = 3


def _best_us(run: Callable[[], int]) -> float:
    """Fastest of a few rounds, in microseconds per operation."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        operations = run()
        best = min(best, (time.perf_counter() - start) / operations)
    return best * 1e6


def rmw_txn_us() -> float:
    """One read-modify-write transaction through strict 2PL."""
    from repro.cc import LocalScheduler, Read, Write
    from repro.sim import Simulator
    from repro.storage import ObjectStore

    def run() -> int:
        sim = Simulator()
        store = ObjectStore("n")
        store.load({f"o{i}": 0 for i in range(50)})
        scheduler = LocalScheduler("n", store, sim=sim)

        def body(obj: str):
            def inner(_ctx):
                value = yield Read(obj)
                yield Write(obj, value + 1)
            return inner

        for i in range(2000):
            scheduler.submit(f"T{i}", body(f"o{i % 50}"))
        sim.run()
        return 2000

    return _best_us(run)


def lock_cycle_us() -> float:
    """Acquire one exclusive lock and release it."""
    from repro.cc import LockMode, LockTable

    def run() -> int:
        table = LockTable()
        for i in range(20000):
            table.acquire("T", f"o{i % 50}", LockMode.X)
            table.release_all("T")
        return 20000

    return _best_us(run)


def _quasi() -> Any:
    from repro import QuasiTransaction
    from repro.storage.values import Version

    return QuasiTransaction(
        source_txn="T1",
        fragment="F0",
        agent="ag0",
        origin_node="N0",
        stream_seq=1,
        epoch=0,
        writes=[("f0o0", Version(1, "T1", 1, 0.0))],
        origin_time=0.0,
    )


def wal_append_us() -> float:
    """Append one install record to the write-ahead log."""
    from repro.storage.wal import WriteAheadLog

    quasi = _quasi()

    def run() -> int:
        wal = WriteAheadLog("n")
        for _ in range(50000):
            wal.append_install(quasi)
        return 50000

    return _best_us(run)


def reliable_roundtrip_us() -> float:
    """Send one message A -> B under the reliable transport, ack included."""
    from repro import Topology
    from repro.net.network import Network
    from repro.net.reliable import ReliableTransport
    from repro.sim import Simulator

    def run() -> int:
        sim = Simulator()
        network = Network(sim, Topology.full_mesh(["A", "B"], 1.0))
        ReliableTransport(network)
        received = []
        network.register("A", lambda message: None)
        network.register("B", received.append)
        for i in range(2000):
            network.send("A", "B", "probe", i)
        sim.run()
        if len(received) != 2000:
            raise RuntimeError("reliable microbench lost messages")
        return 2000

    return _best_us(run)


def _frame_message() -> Any:
    """A one-update replication frame as the write path sends it."""
    from repro import QtBatch
    from repro.net.broadcast import SeqPayload
    from repro.net.message import Message
    from repro.net.reliable import RPacket
    from repro.replication.batch import QTB_TYPE

    batch = QtBatch(origin="N0", qts=(_quasi(),), created_at=0.0)
    body = {"type": QTB_TYPE, "batch": batch}
    payload = RPacket(7, "qt", SeqPayload("N0", 7, "qt", body, "f:F0"))
    return Message("N0", "N1", "qt", payload, sent_at=1.0)


def encode_frame_us() -> float:
    from repro.runtime.codec import default_codec

    codec, message = default_codec(), _frame_message()

    def run() -> int:
        for _ in range(5000):
            codec.encode_frame(message)
        return 5000

    return _best_us(run)


def decode_frame_us() -> float:
    from repro.runtime.codec import default_codec

    codec = default_codec()
    body = codec.encode_frame(_frame_message())[4:]

    def run() -> int:
        for _ in range(5000):
            codec.decode_frame(body)
        return 5000

    return _best_us(run)


def frame_bytes() -> float:
    from repro.runtime.codec import default_codec

    return float(len(default_codec().encode_frame(_frame_message())))


def emit_us() -> float:
    """Record one trace event into the ring (no sink)."""
    from repro import Tracer

    def run() -> int:
        tracer = Tracer(enabled=True)
        for i in range(20000):
            tracer.emit("bench.event", txn="T1", node="N0", seq=i)
        return 20000

    return _best_us(run)


def histogram_observe_us() -> float:
    from repro import MetricsRegistry

    def run() -> int:
        histogram = MetricsRegistry().histogram("bench.h")
        for i in range(50000):
            histogram.observe(float(i % 97))
        return 50000

    return _best_us(run)


def schedule_fire_us() -> float:
    """Schedule one simulator event and fire it."""
    from repro.sim import Simulator

    def run() -> int:
        sim = Simulator()
        fired = [0]

        def tick() -> None:
            fired[0] += 1

        for i in range(50000):
            sim.schedule(float(i % 64), tick)
        sim.run()
        return 50000

    return _best_us(run)


MICROBENCHES: dict[str, Callable[[], float]] = {
    "cc.micro.rmw_txn_us": rmw_txn_us,
    "cc.micro.lock_cycle_us": lock_cycle_us,
    "storage.micro.wal_append_us": wal_append_us,
    "net.micro.reliable_roundtrip_us": reliable_roundtrip_us,
    "runtime.micro.encode_frame_us": encode_frame_us,
    "runtime.micro.decode_frame_us": decode_frame_us,
    "runtime.micro.frame_bytes": frame_bytes,
    "obs.micro.emit_us": emit_us,
    "obs.micro.histogram_observe_us": histogram_observe_us,
    "sim.micro.schedule_fire_us": schedule_fire_us,
}


def run_all() -> tuple[dict[str, float | None], list[str]]:
    """Every microbench; a target that is gone yields ``None``."""
    results: dict[str, float | None] = {}
    missing = []
    for name, bench in MICROBENCHES.items():
        try:
            results[name] = bench()
        except (ImportError, AttributeError, TypeError) as exc:
            results[name] = None
            missing.append(f"{name} ({type(exc).__name__}: {exc})")
    return results, missing
