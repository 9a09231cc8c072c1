"""E17 — checkpoint & rejoin cost: full replay vs delta vs snapshot.

E14 established that crash/recover converges; this bench measures what
the convergence *costs* under the three recovery configurations of
:mod:`repro.analysis.recovery_bench` — the same seeded workload, one
replica down from 30% of the horizon until after the traffic ends:

* ``full`` (subsystem disarmed) replays the whole WAL and retains the
  whole archive forever;
* ``checkpoint`` (watermark pinned by the downed replica) restores
  checkpoint + WAL suffix and ships only the missed delta;
* ``snapshot`` (grace elapsed, logs compacted past the rejoiner)
  ships a checkpoint plus the retained tail.

The bounded-logs claims asserted here are the subsystem's contract:
bytes shipped scale with the gap (or fragment size), not run history,
and retained state under checkpointing is a fraction of the disarmed
baseline.  The sweep is seeded, so it must equal the committed
``BENCH_recovery.json``.
"""

from conftest import committed_record, run_once

from repro.analysis.recovery_bench import MODES, run_rejoin_comparison
from repro.analysis.report import format_table

SEEDS = (3, 7, 19)
UPDATES = 60
EVERY = 8
GRACE = 60.0


def sweep():
    rows = []
    for seed in SEEDS:
        results = run_rejoin_comparison(
            seed=seed, n_updates=UPDATES, checkpoint_every=EVERY, grace=GRACE
        )
        for mode in MODES:
            rows.append(results[mode].as_dict())
    return rows


def test_e17_checkpoint_recovery(benchmark, report):
    rows = run_once(benchmark, sweep)
    headers = [
        "mode", "seed", "wal_replayed", "checkpoints", "archive_pruned",
        "delta_qts_shipped", "checkpoints_shipped", "bytes_shipped",
        "retained_bytes", "rejoin_ticks", "consistent", "audit_ok",
    ]
    report(
        format_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            title=(
                f"E17 — checkpoint & rejoin cost ({len(SEEDS)} seeds, "
                f"{UPDATES} updates, checkpoint every {EVERY}, "
                f"grace {GRACE:g})"
            ),
        )
    )
    by_mode = {mode: [r for r in rows if r["mode"] == mode] for mode in MODES}
    for row in rows:
        assert row["consistent"] and row["audit_ok"], row
    for full, ckpt, snap in zip(
        by_mode["full"], by_mode["checkpoint"], by_mode["snapshot"]
    ):
        # Checkpoint + WAL-suffix restore replays a fraction of the log.
        assert ckpt["wal_replayed"] < full["wal_replayed"]
        assert snap["wal_replayed"] < full["wal_replayed"]
        # Snapshot shipping beats replaying the rejoiner's whole gap.
        assert snap["bytes_shipped"] < full["bytes_shipped"]
        assert snap["checkpoints_shipped"] >= 1
        assert full["checkpoints_shipped"] == 0
        # Compaction bounds retained state; disarmed retains everything.
        assert ckpt["retained_bytes"] < full["retained_bytes"]
        assert snap["retained_bytes"] < full["retained_bytes"]
        assert full["archive_pruned"] == 0 and ckpt["archive_pruned"] > 0
    baseline = {
        "bench": "e17_checkpoint_recovery",
        "workload": {
            "seeds": list(SEEDS),
            "updates": UPDATES,
            "checkpoint_every": EVERY,
            "grace": GRACE,
        },
        "rows": rows,
    }
    assert baseline == committed_record("BENCH_recovery.json")
