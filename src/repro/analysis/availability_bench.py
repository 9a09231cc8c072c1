"""E21 — the availability accountant's books, checked against E20.

E20 (:mod:`repro.analysis.failover_bench`) measures write
unavailability *behaviorally*: a client resubmits rejected updates and
the window is "kill to the first commit after the kill".  E21 runs the
**same seeded workload** with the :class:`~repro.obs.timeline.
TimelineSampler` armed and the :class:`~repro.obs.availability.
AvailabilityAccountant` replaying the trace, then proves the
accounting layer against the measured ground truth:

* **determinism** — the supervised mode runs twice; the timeline dump
  and the accountant summary must hash identically (sampling rides the
  simulator's event queue, so both are pure functions of the seed);
* **agreement** — per agent, the accountant's crash window opens at
  the kill instant and closes no later than the behaviorally measured
  window (the accountant sees the token arrive at the successor; the
  client's first commit necessarily follows it);
* **contrast** — the supervised accountant's worst window and
  availability beat the unsupervised run's, mirroring E20's headline;
* against the committed ``BENCH_obs.json``, the whole record must
  match exactly.

Run it with ``python -m repro experiment E21`` (see
:mod:`repro.analysis.experiments`).
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.failover_bench import (
    DEFAULT_FACTOR,
    DEFAULT_FRAGMENTS,
    DEFAULT_HORIZON,
    DEFAULT_NODES,
    DEFAULT_UPDATES,
    run_mode,
)
from repro.analysis.report import format_table
from repro.obs.availability import account_events
from repro.obs.timeline import TimelineSampler

#: Sampling interval for the armed timeline (coarser than the default:
#: the bench hashes every record, and 5-tick resolution is plenty to
#: catch the kill/failover shape on a 200-tick horizon).
SAMPLE_TICK = 5.0

#: Kills fire at 60 + 15*i in the E20 workload (see failover_bench).
KILL_BASE = 60.0
KILL_STEP = 15.0

#: Window-boundary comparison slack (floats rounded through dicts).
EPS = 1e-6


def _run_accounted_mode(
    supervised: bool,
    nodes: int,
    fragments: int,
    updates: int,
    factor: int,
    horizon: float,
    seed: int,
) -> dict:
    """One E20 mode with the sampler armed and the accountant replayed."""
    box: list = []

    def attach(db) -> None:
        sampler = TimelineSampler(db.metrics, tick=SAMPLE_TICK)
        sampler.start(db.sim, until=horizon)

    measured = run_mode(
        supervised,
        nodes=nodes,
        fragments=fragments,
        updates=updates,
        factor=factor,
        horizon=horizon,
        seed=seed,
        db_sink=box,
        on_db=attach,
    )
    db = box[0]
    events = [event.as_dict() for event in db.tracer]
    accountant = account_events(events, end_time=db.sim.now)

    digest = hashlib.sha256()
    timeline_records = 0
    for record in db.metrics.timeline.records():
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
        timeline_records += 1

    agent_windows: dict[str, dict] = {}
    for index in range(fragments):
        agent = f"a{index}"
        fragment_names = accountant.agent_fragments.get(agent, [])
        kill_at = KILL_BASE + KILL_STEP * index
        window = None
        for candidate in accountant.windows:
            if (
                candidate.fragment in fragment_names
                and candidate.dimension == "write"
                and candidate.start <= kill_at + EPS
                and (candidate.end is None or candidate.end >= kill_at)
            ):
                window = candidate
                break
        if window is not None:
            agent_windows[agent] = {
                "start": round(window.start, 4),
                "end": round(
                    window.end if window.end is not None else db.sim.now, 4
                ),
                "causes": sorted(window.causes),
                "kill_at": kill_at,
            }

    summary = accountant.summary()
    return {
        "measured": measured,
        "timeline_hash": digest.hexdigest(),
        "timeline_records": timeline_records,
        "timeline_samples": db.metrics.timeline.samples_taken,
        "write_availability": round(accountant.availability("write"), 6),
        "read_availability": round(accountant.availability("read"), 6),
        "worst_window": round(accountant.worst_window("write"), 4),
        "windows": len(accountant.windows),
        "agent_windows": agent_windows,
        "mttd_mean": summary["mttd_mean"],
        "mttr_mean": summary["mttr_mean"],
        "incidents": len(summary["incidents"]),
    }


def run_availability_accounting_bench(
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    updates: int = DEFAULT_UPDATES,
    factor: int = DEFAULT_FACTOR,
    horizon: float = DEFAULT_HORIZON,
    seed: int = 20,
) -> dict:
    """The full E21 run; returns the ``BENCH_obs.json`` dict.

    The supervised mode runs twice — the ``rerun_*`` fields carry the
    second pass's hashes so the determinism gate can compare without
    re-executing anything.
    """
    args = (nodes, fragments, updates, factor, horizon, seed)
    on = _run_accounted_mode(True, *args)
    rerun = _run_accounted_mode(True, *args)
    off = _run_accounted_mode(False, *args)
    return {
        "benchmark": "E21-availability-accounting",
        "nodes": nodes,
        "fragments": fragments,
        "updates": updates,
        "replication_factor": factor,
        "horizon": horizon,
        "seed": seed,
        "supervised": on,
        "unsupervised": off,
        "rerun_timeline_hash": rerun["timeline_hash"],
        "rerun_worst_window": rerun["worst_window"],
        "rerun_write_availability": rerun["write_availability"],
    }


def table(result: dict) -> str:
    """The E21 table plus the timeline-determinism verdict."""
    rows = []
    for tag in ("supervised", "unsupervised"):
        mode = result[tag]
        rows.append([
            tag,
            f"{mode['write_availability'] * 100:.2f}%",
            f"{mode['read_availability'] * 100:.2f}%",
            round(mode["worst_window"], 1),
            mode["windows"],
            mode["incidents"],
            mode["mttd_mean"] if mode["mttd_mean"] is not None else "-",
            mode["mttr_mean"] if mode["mttr_mean"] is not None else "-",
            mode["timeline_records"],
        ])
    deterministic = (
        result["rerun_timeline_hash"] == result["supervised"]["timeline_hash"]
    )
    return format_table(
        ["mode", "write-avail", "read-avail", "worst-win", "windows",
         "incidents", "mttd", "mttr", "tl-records"],
        rows,
        title=(
            f"E21 — availability accounting: {result['nodes']} nodes, "
            f"{result['fragments']} fragments, "
            f"k={result['replication_factor']}, seed {result['seed']}"
        ),
    ) + f"\ntimeline deterministic across reruns: {deterministic}"


def gates(result: dict) -> list[str]:
    """Verify the E21 claims on a fresh result (see module docstring)."""
    messages: list[str] = []
    on = result["supervised"]
    off = result["unsupervised"]

    # Determinism: identical seed, identical books.
    if result["rerun_timeline_hash"] != on["timeline_hash"]:
        messages.append(
            "supervised: timeline dump differs between two runs of the "
            "same seed — sampling is not deterministic"
        )
    if result["rerun_worst_window"] != on["worst_window"] or (
        result["rerun_write_availability"] != on["write_availability"]
    ):
        messages.append(
            "supervised: accountant numbers differ between two runs of "
            "the same seed"
        )
    if not on["timeline_records"]:
        messages.append("supervised: the timeline sampler recorded nothing")

    # Agreement with E20's behaviorally measured windows.
    for mode, tag in ((on, "supervised"), (off, "unsupervised")):
        measured = mode["measured"]["unavailability"]
        for agent, window in mode["agent_windows"].items():
            kill_at = window["kill_at"]
            if abs(window["start"] - kill_at) > 1e-3:
                messages.append(
                    f"{tag}: accountant window for {agent} opens at "
                    f"{window['start']}, not at the kill ({kill_at})"
                )
            measured_end = kill_at + measured.get(agent, 0.0)
            if window["end"] > measured_end + 1e-3:
                messages.append(
                    f"{tag}: accountant window for {agent} closes at "
                    f"{window['end']}, after the measured first-commit "
                    f"window ({measured_end:.4f})"
                )
        missing = sorted(set(measured) - set(mode["agent_windows"]))
        if missing:
            messages.append(
                f"{tag}: no accountant window covers the kill of "
                f"agent(s) {missing}"
            )

    # The supervised/unsupervised contrast (E20's headline, re-derived
    # from the accountant instead of the client).
    if on["worst_window"] >= off["worst_window"]:
        messages.append(
            f"supervised worst window {on['worst_window']} not below "
            f"unsupervised {off['worst_window']}"
        )
    if on["write_availability"] <= off["write_availability"]:
        messages.append(
            f"supervised availability {on['write_availability']} not "
            f"above unsupervised {off['write_availability']}"
        )
    if not on["incidents"]:
        messages.append(
            "supervised: the accountant recorded no MTTD/MTTR incidents"
        )
    return messages
