"""Command line of the benchmark.

One workload, as the driver runs it (the last line of stdout is the
JSON result)::

    python3 -m bench --workload http_write_closed --seed 1 --seconds 12 --trace 0

All four workloads in one command, every metric printed by name::

    python3 -m bench --seed 0 --out bench_out.json [--traced] [--quick]

Two records compared, or N full sets to calibrate the bounds::

    python3 -m bench --compare A.json B.json
    python3 -m bench --sets 5
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from bench import report
from bench.workloads import SIM_UPDATES, WORKLOADS, run_workload

QUICK_SECONDS = 2.0
QUICK_SIM_UPDATES = 200


def run_set(
    spec: dict[str, Any],
    seed: int,
    seconds: float,
    traced: bool,
    sim_updates: int,
) -> tuple[dict[str, Any], bool]:
    """All four workloads once; returns the record and whether all passed."""
    record: dict[str, Any] = {"schema": 1, "seed": seed, "workloads": {}}
    correct = True
    for name in WORKLOADS:
        run = run_workload(name, seed, seconds, traced, sim_updates)
        report.print_run(run, spec)
        record["workloads"][name] = report.workload_record(run, spec)
        correct = correct and run.correct
    return record, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="after the untraced set, run a traced set")
    parser.add_argument("--quick", action="store_true",
                        help="2 s windows and 200 simulator updates")
    parser.add_argument("--out", help="write the record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--sets", type=int, metavar="N")
    args = parser.parse_args(argv)
    spec = report.load_spec()
    try:
        import repro  # noqa: F401 -- fail before any set-up, not mid-run
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2

    if args.compare:
        records = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                records.append(json.load(handle))
        return 0 if report.compare(records[0], records[1], spec) else 1

    seconds = args.seconds or float(spec["run_seconds"])
    sim_updates = SIM_UPDATES
    if args.quick:
        seconds, sim_updates = QUICK_SECONDS, QUICK_SIM_UPDATES

    if args.workload:
        run = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), sim_updates
        )
        report.print_run(run, spec)
        print(report.contract_line(run, spec))
        # The driver reads the verdict from the line, not the exit code.
        return 0

    if args.sets:
        records = []
        correct = True
        for index in range(args.sets):
            record, ok = run_set(
                spec, args.seed + index, seconds, False, sim_updates
            )
            records.append(record)
            correct = correct and ok
        report.print_sets(records, spec)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(records, handle, indent=1)
        return 0 if correct else 1

    record, correct = run_set(spec, args.seed, seconds, False, sim_updates)
    if args.traced:
        traced, ok = run_set(spec, args.seed, seconds, True, sim_updates)
        for name, entry in traced["workloads"].items():
            record["workloads"][name]["traced_run"] = entry
        correct = correct and ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
