"""Shared helpers for the experiment benches.

Every bench prints the rows/series of the paper artifact it reproduces
through the ``report`` fixture (write-through past pytest's capture, so
the tables land in ``bench_output.txt``), and registers its run with
pytest-benchmark for timing.  Benches with a committed ``BENCH_*.json``
compare against it and write nothing: regenerating a record is an
explicit act, never a test side effect.
"""

from pathlib import Path

import pytest

from repro.analysis.experiments import load_record

ROOT = Path(__file__).resolve().parents[1]


def committed_record(name: str) -> dict:
    """The committed record ``name`` at the repo root."""
    record = load_record(ROOT / name)
    assert record is not None, f"{name} is missing from the repo root"
    return record


@pytest.fixture
def report(capsys):
    """Emit experiment output through pytest's capture."""

    def emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return emit


def run_once(benchmark, fn):
    """Benchmark a deterministic experiment with a single round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
