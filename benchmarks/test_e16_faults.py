"""E16 — the guarantee matrix on a lossy network, and its price.

E13 stresses the movement protocols with partitions only; E16 drops
the reliable-substrate assumption entirely.  A seeded nemesis layers
message loss, duplication, and latency jitter under the same randomized
workload, with the ack/retransmit delivery layer switched on, and
sweeps the loss rate:

* the Section 4.4 guarantee table must hold at every loss rate up to
  20% — and the *final state hash* of each reliable protocol's run
  must equal the fault-free run of the same seed (message faults cost
  retransmissions and time, never outcomes);
* retransmit overhead and convergence time grow with the loss rate —
  that curve is the price of implementing the paper's "all messages
  are eventually delivered" assumption; it is seeded, so it must equal
  the committed ``BENCH_faults.json``;
* a full-chaos pass (loss + bursts + flaps + crashes + partitions)
  re-checks the table when connectivity is also under attack.

Hash matching is only claimed for the loss/dup/jitter sweep:
connectivity episodes legitimately change protocol *decisions* (a
majority check sees a different quorum), so full-chaos runs assert the
guarantee table, not bitwise convergence.

``none`` and ``corrective`` promise no fragmentwise serializability,
so a delayed quasi-transaction may legally change their outcome; the
runs where it does are named (``DIVERGENT_RUNS``), not counted, and
EXPERIMENTS.md says for each which install moved and why §4.4 allows
it.
"""

from conftest import committed_record, run_once

from repro.analysis.nemesis import PROTOCOLS, NemesisConfig, run_nemesis
from repro.analysis.report import format_table

SEEDS = range(6)
LOSS_RATES = (0.05, 0.1, 0.2)
RELIABLE_PROTOCOLS = ("majority", "with-data", "with-seqno")
CHAOS_SEEDS = range(4)
#: The lossy runs whose final state differs from the fault-free run of
#: the same seed.  Each is a move racing a retransmitted
#: quasi-transaction (the §4.4 missing-transactions problem); all are
#: mutually consistent and pass the audit.
DIVERGENT_RUNS = [
    # T0 reaches the new home N2 after it committed T1 (Fig. 4.4.1).
    ("none", 0.2, 2),
    # T7 reaches the new home N0 after the token: repackaged (A2).
    ("corrective", 0.2, 0),
    # T2 reaches the new home N3 after T14 overwrote it: stripped (A2).
    ("corrective", 0.2, 4),
]

BASELINE = NemesisConfig(
    loss_rate=0.0, dup_rate=0.0, jitter=0.0, n_partitions=0
)
CHAOS = NemesisConfig(
    loss_rate=0.15,
    dup_rate=0.05,
    jitter=2.0,
    n_bursts=1,
    n_flaps=2,
    n_crashes=1,
    n_partitions=1,
)


def _lossy(loss_rate: float) -> NemesisConfig:
    return NemesisConfig(
        loss_rate=loss_rate, dup_rate=0.05, jitter=2.0, n_partitions=0
    )


def sweep():
    rows = []
    divergent = []
    violations = []
    for protocol in PROTOCOLS:
        baselines = {
            seed: run_nemesis(seed, protocol, BASELINE) for seed in SEEDS
        }
        base_converge = sum(
            r.converge_time for r in baselines.values()
        ) / len(baselines)
        rows.append(
            {
                "protocol": protocol,
                "loss": 0.0,
                "drops": 0,
                "retransmits": 0,
                "dups dropped": 0,
                "exhausted": 0,
                "messages": sum(
                    r.messages_sent for r in baselines.values()
                ),
                "converge": round(base_converge, 1),
                "hash match": f"{len(SEEDS)}/{len(SEEDS)}",
            }
        )
        for loss in LOSS_RATES:
            config = _lossy(loss)
            results = [run_nemesis(seed, protocol, config) for seed in SEEDS]
            matches = sum(
                r.state_hash == baselines[r.seed].state_hash for r in results
            )
            for r in results:
                if not r.respects_guarantees():
                    violations.append((protocol, loss, r.seed))
                if r.state_hash != baselines[r.seed].state_hash:
                    divergent.append((protocol, loss, r.seed))
                    # A different outcome, but one all replicas share.
                    if not r.mutually_consistent:
                        violations.append((protocol, loss, r.seed))
            rows.append(
                {
                    "protocol": protocol,
                    "loss": loss,
                    "drops": sum(r.drops for r in results),
                    "retransmits": sum(r.retransmits for r in results),
                    "dups dropped": sum(r.dups_dropped for r in results),
                    "exhausted": sum(r.exhausted for r in results),
                    "messages": sum(r.messages_sent for r in results),
                    "converge": round(
                        sum(r.converge_time for r in results) / len(results),
                        1,
                    ),
                    "hash match": f"{matches}/{len(SEEDS)}",
                }
            )
    return rows, divergent, violations


def test_e16_loss_sweep(benchmark, report):
    rows, divergent, violations = run_once(benchmark, sweep)
    headers = list(rows[0])
    report(
        format_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            title=(
                f"E16 — loss-rate sweep under ack/retransmit delivery "
                f"({len(SEEDS)} seeds each; dup=0.05, jitter=2.0)"
            ),
        )
    )
    assert not violations, violations
    assert divergent == DIVERGENT_RUNS
    assert not {run[0] for run in divergent} & set(RELIABLE_PROTOCOLS)
    # Retransmit overhead must actually track the loss rate (the curve
    # the benchmark exists to measure).
    for protocol in PROTOCOLS:
        per_loss = [
            row["retransmits"]
            for row in rows
            if row["protocol"] == protocol and row["loss"] > 0.0
        ]
        assert per_loss == sorted(per_loss), (protocol, per_loss)
        assert per_loss[-1] > 0
    baseline = {
        "bench": "e16_faults",
        "seeds": len(SEEDS),
        "workload": {
            "nodes": BASELINE.n_nodes,
            "updates": BASELINE.n_updates,
            "moves": BASELINE.n_moves,
            "dup_rate": 0.05,
            "jitter": 2.0,
        },
        "rows": [
            {
                "protocol": row["protocol"],
                "loss_rate": row["loss"],
                "drops": row["drops"],
                "retransmits": row["retransmits"],
                "duplicates_dropped": row["dups dropped"],
                "exhausted": row["exhausted"],
                "messages_sent": row["messages"],
                "mean_converge_time": row["converge"],
                "hash_matches": row["hash match"],
            }
            for row in rows
        ],
        "hash_divergent_runs": [list(run) for run in divergent],
    }
    assert baseline == committed_record("BENCH_faults.json")


def test_e16b_full_chaos(benchmark, report):
    """Loss + bursts + flaps + crashes + partitions, all protocols."""

    def chaos():
        outcomes = []
        for protocol in PROTOCOLS:
            for seed in CHAOS_SEEDS:
                outcomes.append(run_nemesis(seed, protocol, CHAOS))
        return outcomes

    outcomes = run_once(benchmark, chaos)
    broken = [
        (r.protocol, r.seed) for r in outcomes if not r.respects_guarantees()
    ]
    report(
        f"E16b — full chaos ({len(outcomes)} runs: loss=0.15 + burst + "
        f"2 flaps + crash + partition): {len(broken)} guarantee "
        f"violations, {sum(r.retransmits for r in outcomes)} retransmits, "
        f"{sum(r.exhausted for r in outcomes)} exhausted"
    )
    assert not broken, broken
    assert all(r.exhausted == 0 for r in outcomes)
