"""The gated experiments (E18–E21): one registry, one runner.

Each entry names a committed record at the repo root and the three
functions its module provides — ``run() -> dict`` at full size,
``table(result) -> str`` and ``gates(result) -> list[str]`` (its
claims; empty means every one held).  :meth:`Experiment.judge` adds the
one comparison with the committed record: every experiment is a
deterministic function of its seed, so the record must match exactly.
``repro experiment``, ``benchmarks/test_experiments.py`` and the tier-1
record-reproduction test all walk this one registry, so a result is
produced, printed, written and gated in exactly one way.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis import (
    availability_bench,
    failover_bench,
    partial_bench,
    scale_bench,
)


@dataclass(frozen=True)
class Experiment:
    """One gated experiment: what to run and how to judge it."""

    key: str
    record: str  # committed record file, relative to the repo root
    run: Callable[[], dict]
    table: Callable[[dict], str]
    gates: Callable[[dict], list[str]]
    #: The part of a record that must equal the committed one: all of
    #: it, unless the experiment also times the wall clock.
    deterministic: Callable[[dict], object] = lambda record: record

    def judge(self, result: dict, committed: dict | None) -> list[str]:
        """Every failed gate of ``result``, exactness against
        ``committed`` (when given) included."""
        problems = self.gates(result)
        if committed is not None and (
            self.deterministic(result) != self.deterministic(committed)
        ):
            problems.append(
                f"deterministic record diverges from the committed "
                f"{self.record} (regenerate with `python -m repro "
                f"experiment {self.key} --json {self.record}` if the "
                f"change is intentional)"
            )
        return problems


EXPERIMENTS: dict[str, Experiment] = {
    exp.key: exp
    for exp in (
        Experiment(
            "E18", "BENCH_scale.json", scale_bench.run_scale_bench,
            scale_bench.table, scale_bench.gates, scale_bench.schedule,
        ),
        Experiment(
            "E19", "BENCH_partial.json", partial_bench.run_partial_bench,
            partial_bench.table, partial_bench.gates,
        ),
        Experiment(
            "E20", "BENCH_availability.json",
            failover_bench.run_failover_bench,
            failover_bench.table, failover_bench.gates,
        ),
        Experiment(
            "E21", "BENCH_obs.json",
            availability_bench.run_availability_accounting_bench,
            availability_bench.table, availability_bench.gates,
        ),
    )
}


def load_record(path: str | os.PathLike) -> dict | None:
    """A committed benchmark record, or None if the file is absent."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_record(result: dict, path: str | os.PathLike) -> None:
    """Write a benchmark record as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(
    key: str, check: str | None = None, json_out: str | None = None
) -> int:
    """Run one experiment, print its table, gate it; returns the exit code.

    ``check`` names a committed record to gate against (the intrinsic
    gates always run); ``json_out`` receives the fresh record, pass or
    fail, so CI can upload what it measured.
    """
    experiment = EXPERIMENTS[key]
    committed = None
    if check is not None:
        committed = load_record(check)
        if committed is None:
            print(f"error: no committed benchmark at {check}",
                  file=sys.stderr)
            return 1
    result = experiment.run()
    print(experiment.table(result))
    problems = experiment.judge(result, committed)
    for problem in problems:
        print("GATE FAILED: " + problem, file=sys.stderr)
    if not problems:
        print("all gates OK" + (f" against {check}" if check else ""))
    if json_out:
        write_record(result, json_out)
        print(f"wrote {json_out}")
    return 1 if problems else 0
