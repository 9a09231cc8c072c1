"""The gated-experiment registry against the committed records."""

from pathlib import Path

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    load_record,
    write_record,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("key", ["E19", "E20", "E21"])
def test_committed_record_reproduces(key):
    """Full size, ``--check`` semantics: the seeded run must regenerate
    its committed record field for field, so every tier-1 run proves
    the state hashes, windows and timeline hashes did not move.  (E18
    times wall clock; CI and ``benchmarks/`` gate it.)"""
    experiment = EXPERIMENTS[key]
    committed = load_record(ROOT / experiment.record)
    assert committed is not None
    result = experiment.run()
    assert experiment.gates(result, committed) == []
    assert result == committed
    assert key in experiment.table(result)


def test_gates_report_a_diverged_record():
    experiment = EXPERIMENTS["E19"]
    committed = load_record(ROOT / experiment.record)
    moved = {**committed, "seed": committed["seed"] + 1}
    problems = experiment.gates(committed, moved)
    assert len(problems) == 1 and "diverges" in problems[0]


def test_record_round_trip(tmp_path):
    path = tmp_path / "record.json"
    assert load_record(path) is None
    write_record({"b": 1, "a": [1.5, "x"]}, path)
    assert load_record(path) == {"a": [1.5, "x"], "b": 1}
    assert path.read_text().endswith("}\n")
