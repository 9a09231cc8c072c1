"""E18 — end-to-end event throughput of the flattened hot path.

Runs the same E15-class workload (one hot fragment, a mid-run
partition and heal, a convergence probe) twice in one process:

* **baseline** — per-call Dijkstra path queries
  (``topology.cache_paths = False``), the one pre-flattening
  configuration still reachable now that the legacy binary-heap
  scheduler has been removed;
* **flattened** — the shipping configuration: the versioned
  path-latency cache on.

(Earlier records also swapped the scheduler core between sides; since
the heap's removal both sides run the calendar-queue / event-wheel
scheduler, so the measured speedup isolates the path-cache win.)

Both sides must finish with **bit-identical** final-state hashes and
event counts — the throughput win is only admissible if the schedule is
provably unchanged.  Results are recorded in ``BENCH_scale.json`` at
the repo root; CI re-runs it and fails if the *relative* speedup (which
is machine-independent, unlike absolute events/second) falls below
``MIN_SPEEDUP``, or if the schedule (state hash, event and message
counts) differs from the committed file.  Run it with
``python -m repro experiment E18`` (see
:mod:`repro.analysis.experiments`).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

from repro.analysis.report import format_table
from repro.cc.ops import Read, Write
from repro.core.properties import check_mutual_consistency
from repro.core.system import FragmentedDatabase
from repro.runtime.api import wall_clock

#: Full-run shape (tests pass smaller values to ``run_side``).
DEFAULT_NODES = 32
DEFAULT_UPDATES = 400

#: Timing repeats per side; the fastest sample wins, which keeps the
#: ratio stable on noisy CI machines.
REPEATS = 3

#: The flattening PR's acceptance bar on the speedup.
MIN_SPEEDUP = 4.0


def state_hash(db: FragmentedDatabase) -> str:
    """Digest of every replica's store: (node, obj, value, writer, vno)."""
    digest = hashlib.sha256()
    for name in sorted(db.nodes):
        store = db.nodes[name].store
        for obj in sorted(store.names):
            version = store.read_version(obj)
            digest.update(
                f"{name}|{obj}|{version.value!r}|{version.writer}|"
                f"{version.version_no}\n".encode()
            )
    return digest.hexdigest()


@dataclass(frozen=True)
class SideResult:
    """One side (baseline or flattened) of the A/B throughput run."""

    path_cache: bool
    nodes: int
    updates: int
    committed: int
    events_fired: int
    messages_sent: int
    elapsed_s: float
    throughput_eps: float  # events fired per wall-clock second
    mutually_consistent: bool
    state: str


def run_side(
    nodes: int = DEFAULT_NODES,
    updates: int = DEFAULT_UPDATES,
    baseline: bool = False,
) -> SideResult:
    """Run the E18 workload once and time it.

    ``baseline=True`` disables the path-latency cache, reproducing the
    still-reachable part of the pre-flattening configuration in the
    same process so the comparison is apples-to-apples.
    """
    db = FragmentedDatabase([f"N{i}" for i in range(nodes)])
    db.topology.cache_paths = not baseline
    db.add_agent("ag", home_node="N0")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()

    def bump(_ctx):
        value = yield Read("x")
        yield Write("x", value + 1)

    trackers = []
    # The E15 phase structure, scaled: updates spread over t=0..60,
    # half the mesh severed for t=10..80, convergence probed after.
    step = 60.0 / updates
    for i in range(updates):
        db.sim.schedule_at(
            i * step,
            lambda: trackers.append(db.submit_update("ag", bump, writes=["x"])),
        )
    names = [f"N{i}" for i in range(nodes)]
    half, other = names[: nodes // 2], names[nodes // 2 :]
    db.sim.schedule_at(10.0, lambda: db.partitions.partition_now([half, other]))
    heal_at = 80.0
    db.sim.schedule_at(heal_at, db.partitions.heal_now)

    def probe():
        if db.sim.pending:
            db.sim.schedule(0.25, probe)

    db.sim.schedule_at(heal_at, probe)

    # Wall time flows through the explicit Clock interface: the *only*
    # real-clock read in the simulator-backed analysis code, and it
    # never feeds back into scheduling — determinism audits grep for
    # wall_clock()/perf_counter and must find nothing else.
    wall = wall_clock()
    start = wall.now()
    db.quiesce()
    elapsed = wall.now() - start

    events = db.sim.events_fired
    return SideResult(
        path_cache=not baseline,
        nodes=nodes,
        updates=updates,
        committed=sum(1 for t in trackers if t.succeeded),
        events_fired=events,
        messages_sent=db.network.messages_sent,
        elapsed_s=round(elapsed, 4),
        throughput_eps=round(events / elapsed, 1) if elapsed > 0 else 0.0,
        mutually_consistent=check_mutual_consistency(
            db.nodes.values()
        ).consistent,
        state=state_hash(db),
    )


def run_scale_bench(
    nodes: int = DEFAULT_NODES,
    updates: int = DEFAULT_UPDATES,
    repeats: int = REPEATS,
) -> dict:
    """The full E18 A/B comparison; returns the ``BENCH_scale.json`` dict.

    With ``repeats > 1`` each side runs that many times and the fastest
    wall-clock sample wins (standard benchmarking practice: the minimum
    is the least noise-contaminated estimate).  Determinism checks
    apply to every repeat, not just the fastest.
    """
    baselines = [
        run_side(nodes, updates, baseline=True) for _ in range(repeats)
    ]
    flattened = [
        run_side(nodes, updates, baseline=False) for _ in range(repeats)
    ]
    states = {side.state for side in baselines + flattened}
    events = {side.events_fired for side in baselines + flattened}
    best_base = min(baselines, key=lambda side: side.elapsed_s)
    best_flat = min(flattened, key=lambda side: side.elapsed_s)
    speedup = (
        best_flat.throughput_eps / best_base.throughput_eps
        if best_base.throughput_eps
        else 0.0
    )
    return {
        "benchmark": "E18-scale-bench",
        "nodes": nodes,
        "updates": updates,
        "repeats": repeats,
        "baseline": asdict(best_base),
        "flattened": asdict(best_flat),
        "speedup": round(speedup, 2),
        "state_match": len(states) == 1,
        "events_match": len(events) == 1,
    }


def table(result: dict) -> str:
    """The E18 result table plus the two determinism verdicts."""
    rows = [
        [tag, side["path_cache"], side["events_fired"], side["elapsed_s"],
         side["throughput_eps"], side["mutually_consistent"]]
        for tag, side in (
            ("baseline", result["baseline"]),
            ("flattened", result["flattened"]),
        )
    ]
    return (
        format_table(
            ["side", "path cache", "events", "elapsed s", "events/s", "MC"],
            rows,
            title=(
                f"E18 — scale bench: {result['nodes']} nodes, "
                f"{result['updates']} updates, speedup {result['speedup']}x"
            ),
        )
        + f"\nstate hashes match:  {result['state_match']}"
        + f"\nevent counts match:  {result['events_match']}"
    )


def gates(result: dict, committed: dict | None = None) -> list[str]:
    """Gate a fresh result (and, optionally, against the record).

    Determinism is the hard constraint: both sides must agree on the
    final-state hash and the event count, stay mutually consistent and
    commit every update.  The *relative* speedup is held to the fixed
    ``MIN_SPEEDUP`` bar, not absolute events/second, so the gate holds
    across machines of different speeds; against the committed record
    the schedule itself (state hash, event and message counts) must
    match exactly.
    """
    problems: list[str] = []
    if not result["state_match"]:
        problems.append("final-state hashes diverge between configurations")
    if not result["events_match"]:
        problems.append("event counts diverge between configurations")
    for tag in ("baseline", "flattened"):
        side = result[tag]
        if not side["mutually_consistent"]:
            problems.append(f"{tag}: mutual consistency violated")
        if side["committed"] != result["updates"]:
            problems.append(
                f"{tag}: {side['committed']}/{result['updates']} committed"
            )
    speedup = result["speedup"]
    if speedup < MIN_SPEEDUP:
        problems.append(
            f"throughput speedup {speedup}x below the {MIN_SPEEDUP}x bar"
        )
    if committed is not None:
        fields = ("state", "events_fired", "messages_sent")
        if any(
            result["flattened"][f] != committed["flattened"][f] for f in fields
        ):
            problems.append(
                "state hash or event/message counts diverged from the "
                "committed BENCH_scale.json (regenerate with `python -m "
                "repro experiment E18 --json BENCH_scale.json` if the "
                "change is intentional)"
            )
    return problems
