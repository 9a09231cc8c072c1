"""The gated-experiment registry against the committed records."""

import copy
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
    assert experiment.judge(result, committed) == []
    assert result == committed
    assert key in experiment.table(result)


def test_gates_report_a_diverged_record():
    experiment = EXPERIMENTS["E19"]
    committed = load_record(ROOT / experiment.record)
    moved = {**committed, "seed": committed["seed"] + 1}
    problems = experiment.judge(committed, moved)
    assert len(problems) == 1 and "diverges" in problems[0]


def bump_one_value(node) -> bool:
    """Add 1 to the first number found, nested values first."""
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    for key in sorted(keys, key=lambda k: not isinstance(node[k], (dict, list))):
        value = node[key]
        if isinstance(value, (dict, list)):
            if bump_one_value(value):
                return True
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            node[key] = value + 1
            return True
    return False


@pytest.mark.parametrize("key", ["E19", "E20", "E21"])
def test_one_changed_value_fails_the_exact_gate(key):
    experiment = EXPERIMENTS[key]
    committed = load_record(ROOT / experiment.record)
    assert experiment.judge(committed, committed) == []
    moved = copy.deepcopy(committed)
    assert bump_one_value(moved)
    problems = experiment.judge(committed, moved)
    assert problems == [
        f"deterministic record diverges from the committed "
        f"{experiment.record} (regenerate with `python -m repro "
        f"experiment {key} --json {experiment.record}` if the change "
        f"is intentional)"
    ]


def test_record_round_trip(tmp_path):
    path = tmp_path / "record.json"
    assert load_record(path) is None
    write_record({"b": 1, "a": [1.5, "x"]}, path)
    assert load_record(path) == {"a": [1.5, "x"], "b": 1}
    assert path.read_text().endswith("}\n")
