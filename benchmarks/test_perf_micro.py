"""Performance microbenchmarks of the substrate layers.

Unlike the E* experiment benches (one deterministic round, table
output), these run multiple timed rounds and exist to catch performance
regressions in the hot paths: local transaction execution, quasi-
transaction fan-out, serialization-graph construction, and a full
system-scale end-to-end run.
"""

from conftest import committed_record, run_once

from repro import FragmentedDatabase, PipelineConfig, QtBatch
from repro.cc import LocalScheduler, Read, Write
from repro.core.gsg import global_serialization_graph
from repro.net.broadcast import SeqPayload
from repro.net.message import Message
from repro.sim import Simulator
from repro.storage import ObjectStore
from repro.storage.values import Version


def test_perf_local_scheduler_throughput(benchmark):
    """Commit 1000 small transactions through strict 2PL."""

    def run():
        sim = Simulator()
        store = ObjectStore("n")
        store.load({f"o{i}": 0 for i in range(50)})
        sched = LocalScheduler("n", store, sim=sim)

        def body(index):
            def inner(_ctx):
                value = yield Read(f"o{index % 50}")
                yield Write(f"o{index % 50}", value + 1)

            return inner

        for i in range(1000):
            sched.submit(f"T{i}", body(i))
        sim.run()
        return sched.committed

    committed = benchmark(run)
    assert committed == 1000


def test_perf_broadcast_fanout(benchmark):
    """Propagate 200 updates across an 8-node full mesh."""

    def run():
        db = FragmentedDatabase([f"N{i}" for i in range(8)])
        db.add_agent("ag", home_node="N0")
        db.add_fragment("F", agent="ag", objects=["x"])
        db.load({"x": 0})
        db.finalize()

        def bump(_ctx):
            value = yield Read("x")
            yield Write("x", value + 1)

        for _ in range(200):
            db.submit_update("ag", bump, writes=["x"])
        db.quiesce()
        return db.nodes["N7"].store.read("x")

    final = benchmark(run)
    assert final == 200


def test_perf_gsg_construction(benchmark):
    """Build the global serialization graph over a 600-commit history."""
    db = FragmentedDatabase(["A", "B", "C"])
    for i in range(3):
        db.add_agent(f"ag{i}", home_node=["A", "B", "C"][i])
        db.add_fragment(f"F{i}", agent=f"ag{i}", objects=[f"o{i}"])
    db.load({"o0": 0, "o1": 0, "o2": 0})
    db.finalize()

    def body(me, other):
        def inner(_ctx):
            theirs = yield Read(other)
            yield Write(me, theirs + 1)

        return inner

    for i in range(600):
        owner = i % 3
        db.submit_update(
            f"ag{owner}",
            body(f"o{owner}", f"o{(owner + 1) % 3}"),
            reads=[f"o{(owner + 1) % 3}"],
            writes=[f"o{owner}"],
        )
    db.quiesce()

    graph = benchmark(lambda: global_serialization_graph(db.recorder))
    assert len(graph) == 600


def test_perf_end_to_end_partitioned_run(benchmark):
    """A full system run: 6 nodes, partition + heal, 300 updates."""

    def run():
        db = FragmentedDatabase([f"N{i}" for i in range(6)])
        for i in range(3):
            db.add_agent(f"ag{i}", home_node=f"N{i}")
            db.add_fragment(f"F{i}", agent=f"ag{i}", objects=[f"o{i}"])
        db.load({"o0": 0, "o1": 0, "o2": 0})
        db.finalize()

        def bump(obj):
            def inner(_ctx):
                value = yield Read(obj)
                yield Write(obj, value + 1)

            return inner

        for i in range(300):
            db.sim.schedule_at(
                float(i),
                lambda i=i: db.submit_update(
                    f"ag{i % 3}", bump(f"o{i % 3}"), writes=[f"o{i % 3}"]
                ),
            )
        db.sim.schedule_at(
            50.0,
            lambda: db.partitions.partition_now(
                [["N0", "N1"], ["N2", "N3", "N4", "N5"]]
            ),
        )
        db.sim.schedule_at(200.0, db.partitions.heal_now)
        db.quiesce()
        assert db.mutual_consistency().consistent
        return db.availability_stats().committed

    committed = benchmark(run)
    assert committed == 300


def test_hot_path_dataclasses_are_slotted():
    """The per-message/per-version envelopes are the allocation hot
    path; slots keep them dict-free (and frozen where shared)."""
    instances = [
        Message("A", "B", "qt", None),
        SeqPayload("A", 0, "qt", None),
        Version(0),
        QtBatch(origin="A", qts=(), created_at=0.0),
    ]
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        assert "__slots__" in type(obj).__dict__, type(obj).__name__


def _fanout(pipeline=None):
    """200 updates across an 8-node full mesh (the fan-out hot path)."""
    db = FragmentedDatabase([f"N{i}" for i in range(8)], pipeline=pipeline)
    db.add_agent("ag", home_node="N0")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()

    def bump(_ctx):
        value = yield Read("x")
        yield Write("x", value + 1)

    for _ in range(200):
        db.submit_update("ag", bump, writes=["x"])
    db.quiesce()
    assert db.nodes["N7"].store.read("x") == 200
    return db


def test_perf_pipeline_batched_fanout(benchmark, report):
    """Batched vs unbatched propagation of the same 200-update fan-out.

    The message counts are deterministic and must equal the committed
    ``BENCH_pipeline.json`` (the replication pipeline's baseline).
    """
    config = PipelineConfig(batch_size=16, batch_window=1.0)

    def compare():
        return {"unbatched": _fanout(None), "batched": _fanout(config)}

    dbs = run_once(benchmark, compare)
    qt_plain = dbs["unbatched"].network.messages_by_kind["qt"]
    qt_batched = dbs["batched"].network.messages_by_kind["qt"]
    assert qt_plain >= 2 * qt_batched
    baseline = {
        "bench": "pipeline_fanout",
        "nodes": 8,
        "updates": 200,
        "batch_size": config.batch_size,
        "batch_window": config.batch_window,
        "qt_messages": {"unbatched": qt_plain, "batched": qt_batched},
        "total_messages": {
            label: db.network.messages_sent for label, db in dbs.items()
        },
        "qt_reduction": round(qt_plain / qt_batched, 2),
    }
    report(
        f"pipeline fan-out: {qt_plain} -> {qt_batched} qt messages "
        f"({baseline['qt_reduction']}x reduction)"
    )
    assert baseline == committed_record("BENCH_pipeline.json")
