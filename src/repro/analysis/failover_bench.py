"""E20 — write availability under agent-home crashes, with and without
the availability supervisor.

One seeded workload (multi-fragment, restricted replica sets, updates
spread across the run) is executed twice:

* **supervisor on** — every agent's home node is crash-stopped at a
  known time and recovered later.  The supervisor detects each crash
  via heartbeats, elects a successor from the fragment's live replica
  set, cuts a new stream epoch, and the recovered ex-home demotes.
  Clients resubmit rejected updates, so every logical update commits;
  the per-agent *write-unavailability window* (kill to first commit
  after the kill) is bounded by the detection + takeover time.
* **supervisor off** — the same kills, never recovered, no failover.
  Rejected updates stay rejected until the resubmission budget runs
  out, and the unavailability window stretches to the rest of the run.

Everything recorded is a deterministic function of the seed — commit
counts, unavailability windows, MTTR observations, audit verdicts,
state hashes — so the committed ``BENCH_availability.json`` compares
exactly in CI: against a committed record the gate is that exact
match, with no second, looser bar on any one number beside it.
Run it with ``python -m repro experiment E20`` (see
:mod:`repro.analysis.experiments`).
"""

from __future__ import annotations

from repro.analysis.audit import audit_events
from repro.analysis.report import format_table
from repro.availability import AvailabilityConfig
from repro.cc.ops import Write
from repro.core.system import FragmentedDatabase
from repro.core.transaction import RequestStatus
from repro.sim.rng import SeededRng

#: Full-run workload shape (tests pass smaller values).
DEFAULT_NODES = 6
DEFAULT_FRAGMENTS = 3
DEFAULT_UPDATES = 36
DEFAULT_FACTOR = 3
DEFAULT_HORIZON = 200.0

#: Client resubmission policy: a rejected update is retried after this
#: delay, up to the attempt budget.  With the supervisor on, failover
#: completes well inside the budget; with it off, the budget runs dry
#: and the update counts as blocked.
RESUBMIT_DELAY = 7.5
MAX_ATTEMPTS = 20


def run_mode(
    supervised: bool,
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    updates: int = DEFAULT_UPDATES,
    factor: int = DEFAULT_FACTOR,
    horizon: float = DEFAULT_HORIZON,
    seed: int = 20,
    db_sink: list | None = None,
    on_db=None,
) -> dict:
    """One mode of the E20 run: the seeded workload, homes killed.

    Both modes construct the database with an
    :class:`AvailabilityConfig` so the submission gate rejects loudly
    while a home is down (clients can react); only the supervised mode
    *starts* the supervisor, so only it detects crashes and fails over.
    The unsupervised mode also never recovers the killed homes — its
    unavailability window is the rest of the run by construction.

    ``db_sink`` receives the database (for post-run inspection);
    ``on_db`` is called with it before any event runs, so read-only
    instrumentation — E21 attaches a
    :class:`~repro.obs.timeline.TimelineSampler` — can observe the
    whole run without perturbing the workload's RNG streams.
    """
    rng = SeededRng(seed).fork("workload")
    names = [f"N{i}" for i in range(nodes)]
    db = FragmentedDatabase(
        names,
        seed=seed,
        replication_factor=factor,
        availability=AvailabilityConfig(),
    )
    if db_sink is not None:
        db_sink.append(db)
    if on_db is not None:
        on_db(db)
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
    if supervised:
        db.availability.start(until=horizon)

    # -- client: one logical update per slot, resubmitted on rejection --
    committed_at: dict[int, float] = {}
    attempts_made = {"n": 0}

    def write_body(objs, value):
        def body(_ctx):
            for obj in objs:
                yield Write(obj, value)

        return body

    def submit(slot: int, agent: str, objs, value: int, attempt: int) -> None:
        attempts_made["n"] += 1

        def on_done(tracker) -> None:
            if tracker.status is RequestStatus.COMMITTED:
                committed_at.setdefault(slot, db.sim.now)
            elif (
                tracker.status
                in (RequestStatus.REJECTED, RequestStatus.TIMED_OUT)
                and attempt + 1 < MAX_ATTEMPTS
            ):
                db.sim.schedule(
                    RESUBMIT_DELAY,
                    lambda: submit(slot, agent, objs, value, attempt + 1),
                    label=f"resubmit U{slot}",
                )

        db.submit_update(
            agent,
            write_body(objs, value),
            writes=objs,
            txn_id=f"U{slot}a{attempt}",
            on_done=on_done,
        )

    update_agent: dict[int, str] = {}
    for slot in range(updates):
        index = rng.randint(0, fragments - 1)
        agent = f"a{index}"
        update_agent[slot] = agent
        objs = objects_of[f"F{index}"]
        value = rng.randint(1, 10_000)
        db.sim.schedule_at(
            rng.uniform(0.0, horizon * 0.75),
            lambda s=slot, a=agent, o=objs, v=value: submit(s, a, o, v, 0),
        )

    # -- kill every agent's home, staggered; recover only when supervised --
    kill_time: dict[str, float] = {}

    def kill_home(agent: str) -> None:
        home = db.agents[agent].home_node
        kill_time[agent] = db.sim.now
        if db.nodes[home].down:
            return
        db.fail_node(home)
        if supervised:
            db.sim.schedule(
                50.0,
                lambda name=home: (
                    db.recover_node(name) if db.nodes[name].down else None
                ),
                label=f"bench recovery {home}",
            )

    for index in range(fragments):
        db.sim.schedule_at(
            60.0 + 15.0 * index,
            lambda a=f"a{index}": kill_home(a),
            label="bench agent-kill",
        )
    db.quiesce()

    audit = audit_events(
        (event.as_dict() for event in db.tracer), run="failover-bench"
    )
    converge = db.sim.now

    # Write-unavailability window per agent: kill to the first commit of
    # one of the agent's updates after the kill (end of run if none).
    windows: dict[str, float] = {}
    for agent, killed in sorted(kill_time.items()):
        after = [
            at
            for slot, at in committed_at.items()
            if update_agent[slot] == agent and at > killed
        ]
        windows[agent] = round((min(after) if after else converge) - killed, 4)

    mttr = db.metrics.value("avail.mttr")
    return {
        "supervised": supervised,
        "submitted": updates,
        "attempts": attempts_made["n"],
        "committed": len(committed_at),
        "blocked": updates - len(committed_at),
        "unavailability": windows,
        "max_unavailability": max(windows.values()) if windows else 0.0,
        "failovers": int(db.metrics.value("avail.failovers")),
        "failovers_aborted": int(
            db.metrics.value("avail.failovers_aborted")
        ),
        "suspicions": int(db.metrics.value("avail.suspicions")),
        "epoch_cuts": int(db.metrics.value("avail.epoch_cuts")),
        "demotions": int(db.metrics.value("avail.demotions")),
        "updates_blocked": int(db.metrics.value("avail.updates_blocked")),
        "updates_discarded": int(
            db.metrics.value("avail.updates_discarded")
        ),
        "mttr_count": mttr["count"],
        "mttr_mean": round(mttr["mean"], 4) if mttr["mean"] else 0.0,
        "mttr_max": round(mttr["max"], 4) if mttr["max"] else 0.0,
        "converge_time": round(converge, 4),
        "audit_ok": audit.ok,
        "audit_violations": audit.violation_count,
        "state_hash": db.state_hash(),
    }


def run_failover_bench(
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    updates: int = DEFAULT_UPDATES,
    factor: int = DEFAULT_FACTOR,
    horizon: float = DEFAULT_HORIZON,
    seed: int = 20,
) -> dict:
    """The full E20 run; returns the ``BENCH_availability.json`` dict."""
    on = run_mode(True, nodes, fragments, updates, factor, horizon, seed)
    off = run_mode(False, nodes, fragments, updates, factor, horizon, seed)
    return {
        "benchmark": "E20-availability-failover",
        "nodes": nodes,
        "fragments": fragments,
        "updates": updates,
        "replication_factor": factor,
        "horizon": horizon,
        "seed": seed,
        "supervised": on,
        "unsupervised": off,
    }


def table(result: dict) -> str:
    """The E20 table: supervised against unsupervised."""
    rows = []
    for tag in ("supervised", "unsupervised"):
        mode = result[tag]
        rows.append([
            tag,
            f"{mode['committed']}/{mode['submitted']}",
            mode["blocked"],
            mode["attempts"],
            mode["failovers"],
            mode["demotions"],
            round(mode["max_unavailability"], 1),
            round(mode["mttr_max"], 1),
            mode["audit_ok"],
        ])
    return format_table(
        ["mode", "committed", "blocked", "attempts", "failovers",
         "demotions", "max-unavail", "mttr-max", "audit"],
        rows,
        title=(
            f"E20 — availability failover: {result['nodes']} nodes, "
            f"{result['fragments']} fragments, "
            f"k={result['replication_factor']}, seed {result['seed']}"
        ),
    )


def gates(result: dict, committed: dict | None = None) -> list[str]:
    """Verify the E20 claims on a fresh result.

    Intrinsic gates (no committed record needed):

    * with the supervisor on, no logical update is permanently blocked
      (every one commits, via resubmission where needed), failovers
      actually happened, and the lineage audit — including the
      epoch-fencing check — passes;
    * every supervised unavailability window is strictly smaller than
      the unsupervised window of the same agent, and bounded well below
      the run length (the MTTR claim);
    * without the supervisor, at least one update stays blocked — the
      contrast that makes the first claim non-vacuous.

    Against a committed record: the whole record must match exactly
    (the run is deterministic), state hashes named separately.
    """
    messages: list[str] = []
    on = result["supervised"]
    off = result["unsupervised"]
    horizon = result["horizon"]
    if on["blocked"]:
        messages.append(
            f"supervised: {on['blocked']} update(s) permanently blocked"
        )
    if not on["failovers"]:
        messages.append("supervised: no failover happened")
    for mode, tag in ((on, "supervised"), (off, "unsupervised")):
        if not mode["audit_ok"]:
            messages.append(
                f"{tag}: lineage audit found "
                f"{mode['audit_violations']} violation(s)"
            )
    if on["max_unavailability"] > horizon * 0.35:
        messages.append(
            f"supervised: max unavailability "
            f"{on['max_unavailability']} not bounded (> 35% of horizon)"
        )
    for agent, window in on["unavailability"].items():
        other = off["unavailability"].get(agent)
        if other is not None and window >= other:
            messages.append(
                f"agent {agent}: supervised window {window} not below "
                f"unsupervised window {other}"
            )
    if not off["blocked"]:
        messages.append(
            "unsupervised: every update still committed — the kill "
            "schedule no longer creates an outage"
        )
    if committed is not None:
        for tag in ("supervised", "unsupervised"):
            if result[tag]["state_hash"] != committed[tag]["state_hash"]:
                messages.append(
                    f"{tag}: state hash diverged from the committed "
                    "BENCH_availability.json"
                )
        if committed != result:
            messages.append(
                "deterministic record diverges from the committed "
                "BENCH_availability.json (regenerate with `python -m "
                "repro experiment E20 --json BENCH_availability.json` "
                "if the change is intentional)"
            )
    return messages
