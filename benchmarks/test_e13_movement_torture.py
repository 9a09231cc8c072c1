"""E13 — the Section 4.4 guarantee matrix under randomized stress.

E7 replays one scripted hazard; this sweep drives every movement
protocol through 60 randomized nemesis runs (random traffic, 3 agent
hops, one random partition, no message faults) and counts how often
each property broke.  The
paper's protocol table must emerge from the aggregate:

* the three consistency-preserving protocols (majority, with-data,
  with-seqno) break *nothing*, ever;
* the corrective protocol preserves mutual consistency in every run
  while sacrificing fragmentwise serializability in a large share;
* the unprotected baseline breaks both, frequently.

Availability cost also surfaces: the majority protocol commits fewer
of the submitted updates (minority-side rejections + resync queuing)
than the token-carrying protocols.
"""

from dataclasses import replace

from conftest import run_once

from repro.analysis.nemesis import MOVEMENT_TORTURE, PROTOCOLS, run_nemesis
from repro.analysis.report import format_table, pipeline_latency_rows
from repro.replication import PipelineConfig

RUNS = 60
BATCHED_RUNS = 20
BATCHED = PipelineConfig(batch_size=4, batch_window=3.0)
BATCHED_TORTURE = replace(MOVEMENT_TORTURE, pipeline=BATCHED)


def sweep():
    rows = []
    for protocol in PROTOCOLS:
        mc_breaks = 0
        fw_breaks = 0
        committed = 0
        submitted = 0
        for seed in range(RUNS):
            result = run_nemesis(seed, protocol, MOVEMENT_TORTURE)
            mc_breaks += not result.mutually_consistent
            fw_breaks += not result.fragmentwise
            committed += result.committed
            submitted += result.submitted
        rows.append(
            {
                "protocol": protocol,
                "runs": RUNS,
                "MC broken": mc_breaks,
                "FW broken": fw_breaks,
                "committed": committed,
                "submitted": submitted,
                "availability": committed / submitted,
            }
        )
    return rows


def test_e13_movement_torture(benchmark, report):
    rows = run_once(benchmark, sweep)
    headers = list(rows[0])
    report(
        format_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            title=(
                f"E13 / Section 4.4 — movement protocols under randomized "
                f"stress ({RUNS} runs each: 15 updates, 3 moves, one random "
                f"partition)"
            ),
        )
    )
    by_name = {row["protocol"]: row for row in rows}
    for protocol in ("majority", "with-data", "with-seqno"):
        assert by_name[protocol]["MC broken"] == 0
        assert by_name[protocol]["FW broken"] == 0
    assert by_name["corrective"]["MC broken"] == 0
    assert by_name["corrective"]["FW broken"] > 0
    assert by_name["none"]["MC broken"] > 0
    assert by_name["none"]["FW broken"] > 0
    # Safety costs availability: majority commits least.
    assert (
        by_name["majority"]["availability"]
        < by_name["with-data"]["availability"]
    )


def test_e13b_torture_with_batching(benchmark, report):
    """The guarantee matrix is batching-invariant: group commit is a
    transport envelope, not a semantics change."""

    latency = {}

    def sweep_batched():
        rows = []
        for protocol in ("majority", "with-data", "with-seqno", "corrective"):
            mc_breaks = 0
            for seed in range(BATCHED_RUNS):
                dbs = []
                result = run_nemesis(
                    seed, protocol, BATCHED_TORTURE, db_sink=dbs
                )
                mc_breaks += not result.mutually_consistent
                if seed == 0:
                    latency[protocol] = pipeline_latency_rows(
                        dbs[0].snapshot()
                    )
            rows.append({"protocol": protocol, "MC broken": mc_breaks})
        return rows

    rows = run_once(benchmark, sweep_batched)
    headers = list(rows[0])
    report(
        format_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            title=(
                f"E13b — movement torture under group commit "
                f"(batch_size={BATCHED.batch_size}, "
                f"window={BATCHED.batch_window}; {BATCHED_RUNS} runs each)"
            ),
        )
    )
    report(
        format_table(
            ["protocol", "stage", "count", "p50", "p90", "max"],
            [
                [protocol, *stage]
                for protocol, stages in latency.items()
                for stage in stages
            ],
            title="E13b — pipeline stage waits + propagation latency (seed 0)",
        )
    )
    for row in rows:
        assert row["MC broken"] == 0, row["protocol"]
        # Group commit actually grouped: batch waits were recorded, and
        # remote installs fed the per-fragment propagation histogram.
        stages = {r[0] for r in latency[row["protocol"]]}
        assert "pipeline.batch_wait" in stages, row["protocol"]
        assert "pipeline.propagation.F" in stages, row["protocol"]
