"""E18–E21 — the gated experiments, through the one registry.

Each entry of :data:`repro.analysis.experiments.EXPERIMENTS` runs at
full size, prints its table and must pass every gate against its
committed ``BENCH_*.json`` — the same run, table and gates as
``python -m repro experiment <key> --check``.  Regenerate a record
with ``python -m repro experiment <key> --json <record>`` after an
intentional change.
"""

import pytest
from conftest import committed_record, run_once

from repro.analysis.experiments import EXPERIMENTS


@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_gated_experiment(key, benchmark, report):
    experiment = EXPERIMENTS[key]
    result = run_once(benchmark, experiment.run)
    report(experiment.table(result))
    problems = experiment.judge(result, committed_record(experiment.record))
    assert not problems, "\n".join(problems)
