"""E19 — message volume and storage footprint under partial replication.

Runs one seeded multi-fragment workload repeatedly, sweeping the
replication factor ``k`` from small replica sets up to full
replication (``k = N``), and records for each point:

* **quasi-transaction messages** — with per-fragment replica sets the
  pipeline multicasts each batch to exactly the fragment's ``k``
  replicas instead of broadcasting to all ``N`` nodes, so the wire
  volume must scale with ``k - 1`` sends per batch, not ``N - 1``;
* **per-node storage** — a node stores only the fragments in whose
  replica sets it appears, so the populated fraction of the global
  object space must track ``k / N``;
* **quorum reads** — reads submitted at non-replicating nodes go
  through the version-vote fallback and must all be served;
* **guarantees** — mutual consistency over common objects plus the
  offline lineage audit (exactly-once / FIFO / agreement / replication
  discipline, per replica set).

Everything recorded is a deterministic function of the seed — message
counts, storage ratios, audit verdicts; no wall-clock timings — so the
committed ``BENCH_partial.json`` can be compared *exactly* by CI, and
the scaling gate (multicast volume at factor ``k`` stays within 10% of
``k/N`` times the full-broadcast volume) holds on any machine.  Run it
with ``python -m repro experiment E19`` (see
:mod:`repro.analysis.experiments`).
"""

from __future__ import annotations

from repro.analysis.audit import audit_events
from repro.analysis.report import format_table
from repro.cc.ops import Write
from repro.core.system import FragmentedDatabase
from repro.core.transaction import scripted_body
from repro.sim.rng import SeededRng

#: Full-run workload shape (tests pass smaller values).
DEFAULT_NODES = 12
DEFAULT_FRAGMENTS = 8
DEFAULT_UPDATES = 160
DEFAULT_FACTORS = (2, 3, 5)

#: Gate slack on the multicast-vs-broadcast volume ratio.
TOLERANCE = 0.10


def run_point(
    k: int | None,
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    updates: int = DEFAULT_UPDATES,
    seed: int = 19,
) -> dict:
    """One sweep point: the seeded workload at replication factor ``k``.

    ``k=None`` is the full-replication baseline (every fragment on
    every node, classic broadcast propagation).
    """
    rng = SeededRng(seed)
    names = [f"N{i}" for i in range(nodes)]
    db = FragmentedDatabase(names, seed=seed, replication_factor=k)
    db.enable_tracing(None)
    objects_of: dict[str, list[str]] = {}
    for index in range(fragments):
        agent = f"a{index}"
        fragment = f"F{index}"
        db.add_agent(agent, home_node=names[index % nodes])
        objs = [f"x{index}", f"y{index}"]
        objects_of[fragment] = objs
        db.add_fragment(fragment, agent=agent, objects=objs)
    db.load({obj: 0 for objs in objects_of.values() for obj in objs})
    db.finalize()

    def write_body(objs, value):
        def body(_ctx):
            for obj in objs:
                yield Write(obj, value)

        return body

    trackers = []
    for index in range(updates):
        fragment = f"F{rng.randint(0, fragments - 1)}"
        agent = f"a{fragment[1:]}"
        value = rng.randint(1, 10_000)
        objs = objects_of[fragment]

        def fire(agent=agent, objs=objs, value=value):
            trackers.append(
                db.submit_update(agent, write_body(objs, value), writes=objs)
            )

        db.sim.schedule_at(rng.uniform(0.0, 100.0), fire)
    db.sim.run(until=140.0)

    # Quorum-read probe: for every fragment with a restricted replica
    # set, read one object at a node outside the set.
    read_trackers = []
    observed: list[tuple[str, object]] = []
    for index in range(fragments):
        fragment = f"F{index}"
        replicas = set(db.replica_set(fragment))
        outside = [name for name in names if name not in replicas]
        if not outside:
            continue
        obj = objects_of[fragment][0]
        read_trackers.append(
            db.submit_readonly(
                f"a{index}",
                scripted_body([("r", obj)], collect=observed),
                at=outside[0],
                reads=[obj],
            )
        )
    db.quiesce()

    audit = audit_events(
        (event.as_dict() for event in db.tracer),
        run=f"partial-bench@k={k}",
    )
    stored = sum(
        len(db.nodes[name].store.names) for name in names
    )
    total_objects = sum(len(objs) for objs in objects_of.values())
    effective_k = nodes if k is None else min(k, nodes)
    return {
        "k": effective_k,
        "full_replication": k is None or k >= nodes,
        "committed": sum(1 for t in trackers if t.succeeded),
        "qt_messages": db.network.messages_by_kind.get("qt", 0),
        "messages_sent": db.network.messages_sent,
        "storage_ratio": round(stored / (nodes * total_objects), 4),
        "expected_storage_ratio": round(effective_k / nodes, 4),
        "quorum_reads": len(read_trackers),
        "quorum_served": sum(1 for t in read_trackers if t.succeeded),
        "mutually_consistent": db.mutual_consistency().consistent,
        "audit_ok": audit.ok,
        "audit_violations": audit.violation_count,
        "state_hash": db.state_hash(),
    }


def run_partial_bench(
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    updates: int = DEFAULT_UPDATES,
    factors: tuple[int, ...] = DEFAULT_FACTORS,
    seed: int = 19,
) -> dict:
    """The full E19 sweep; returns the ``BENCH_partial.json`` dict."""
    points = [
        run_point(k, nodes, fragments, updates, seed) for k in factors
    ]
    baseline = run_point(None, nodes, fragments, updates, seed)
    return {
        "benchmark": "E19-partial-replication",
        "nodes": nodes,
        "fragments": fragments,
        "updates": updates,
        "seed": seed,
        "baseline": baseline,
        "points": points,
    }


def table(result: dict) -> str:
    """The E19 sweep table: one row per factor, the baseline last."""
    baseline = result["baseline"]
    rows = []
    for point in result["points"] + [baseline]:
        ratio = (
            point["qt_messages"] / baseline["qt_messages"]
            if baseline["qt_messages"]
            else 0.0
        )
        rows.append([
            point["k"],
            point["qt_messages"],
            f"{ratio:.2f}",
            f"{point['k'] / result['nodes']:.2f}",
            point["storage_ratio"],
            f"{point['quorum_served']}/{point['quorum_reads']}",
            point["mutually_consistent"],
            point["audit_ok"],
        ])
    return format_table(
        ["k", "qt msgs", "vs bcast", "k/N", "storage", "quorum",
         "MC", "audit"],
        rows,
        title=(
            f"E19 — partial replication: {result['nodes']} nodes, "
            f"{result['fragments']} fragments, {result['updates']} updates"
        ),
    )


def gates(result: dict) -> list[str]:
    """Verify the E19 claims on a fresh result.

    Gates, per sweep point at factor ``k`` against the ``k = N``
    baseline:

    * multicast volume: ``qt_messages(k) <= (k/N) * qt_messages(N)``
      within ``TOLERANCE`` — message volume scales with the replica-set
      size, not the cluster size;
    * storage: populated fraction of the object space within
      ``TOLERANCE`` of ``k/N``;
    * every quorum read served; mutual consistency holds; the lineage
      audit (including the replication-discipline check) passes.
    """
    messages: list[str] = []
    nodes = result["nodes"]
    baseline = result["baseline"]
    if not baseline["audit_ok"] or not baseline["mutually_consistent"]:
        messages.append("baseline run broke its guarantees")
    for point in result["points"]:
        k = point["k"]
        tag = f"k={k}"
        ceiling = (k / nodes) * baseline["qt_messages"] * (1.0 + TOLERANCE)
        if point["qt_messages"] > ceiling:
            messages.append(
                f"{tag}: qt volume {point['qt_messages']} exceeds "
                f"(k/N)*broadcast ceiling {ceiling:.0f}"
            )
        expected = point["expected_storage_ratio"]
        if abs(point["storage_ratio"] - expected) > TOLERANCE * expected:
            messages.append(
                f"{tag}: storage ratio {point['storage_ratio']} not within "
                f"{TOLERANCE:.0%} of k/N = {expected}"
            )
        if point["quorum_served"] != point["quorum_reads"]:
            messages.append(
                f"{tag}: {point['quorum_served']}/{point['quorum_reads']} "
                "quorum reads served"
            )
        if not point["mutually_consistent"]:
            messages.append(f"{tag}: mutual consistency violated")
        if not point["audit_ok"]:
            messages.append(
                f"{tag}: lineage audit found "
                f"{point['audit_violations']} violation(s)"
            )
    return messages
