"""Records: building, printing, comparing and calibrating them.

``BENCHMARK.json`` is the one place that names the metrics, their
units, which direction is better and each end-to-end bound; everything
here reads those from it.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

from bench import ROOT
from bench.stats import spread, worsening
from bench.workloads import Run


def load_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _sample_count(run: Run, metric: str) -> int:
    """How many samples stand behind one end-to-end value."""
    if metric == "p95_ms":
        return run.samples["latency"]
    if metric == "setup_s":
        return run.samples["setups"]
    if metric == "peak_rss_mb":
        return 1
    return run.attempted - run.failed  # ops_per_s


def workload_record(run: Run, spec: dict[str, Any]) -> dict[str, Any]:
    """One workload's entry in the record ``--out`` writes."""
    record: dict[str, Any] = {
        "seed": run.seed,
        "seconds": run.seconds,
        "traced": run.traced,
        "correct": run.correct,
        "checks": run.checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_fraction": run.failed / run.attempted,
        "notes": run.notes,
    }
    if run.traced:
        record["per_layer"] = {
            m["name"]: {
                "value": run.per_layer.get(m["name"]),
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
        record["missing_layers"] = run.notes.get("missing_layers", [])
    else:
        record["info"] = run.info
        record["end_to_end"] = {
            m["name"]: {
                "value": run.end_to_end[m["name"]],
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "n": _sample_count(run, m["name"]),
            }
            for m in spec["end_to_end"]
        }
    return record


def contract_line(run: Run, spec: dict[str, Any]) -> str:
    """The one JSON object the driver reads from the last line."""
    if run.traced:
        # The driver wants a number for every name: a layer that does
        # not apply or whose probe target is gone reads 0 here, and is
        # named just above under ``missing_layers``.
        metrics = {
            m["name"]: {
                "value": run.per_layer.get(m["name"]) or 0.0,
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": run.end_to_end[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    })


def print_run(run: Run, spec: dict[str, Any]) -> None:
    """Every metric by name with its unit, and the verdict of each check."""
    kind = "traced" if run.traced else "untraced"
    print(f"== {run.workload}  seed={run.seed}  {run.seconds:g}s  {kind}")
    block = spec["per_layer"] if run.traced else spec["end_to_end"]
    values = run.per_layer if run.traced else run.end_to_end
    for m in block:
        value = values.get(m["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<40} {shown:>14} {m['unit']}")
    if not run.traced:
        for name, value in run.info.items():
            print(f"  (ungated) {name:<30} {value:>14.6g}")
    print(
        f"  attempted={run.attempted} failed={run.failed} "
        f"failed_fraction={run.failed / run.attempted:.6g}"
    )
    for name, passed in run.checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    if run.notes.get("generator_flagged"):
        print("  FLAGGED: the load generator ran late or hot; do not trust")
    if run.traced:
        print(f"  missing_layers: {run.notes.get('missing_layers', [])}")
        print(f"  spans written to {run.notes.get('trace_file')}")
        path = run.notes.get("blocking_path")
        if path:
            print(
                f"  blocking path per request: parts sum to "
                f"{path['sum_ms']:.3f} ms of {path['client_mean_ms']:.3f} ms "
                f"client mean; largest is {path['largest']} "
                f"({path['largest_share']:.0%})"
            )
            for name, ms in path["parts_ms"].items():
                print(f"    {name:<36} {ms:>10.4f} ms")


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> bool:
    """Is every end-to-end metric of ``b`` within its bound of ``a``?

    Prints one row per metric and workload.
    """
    ok = True
    print(f"{'workload':<22}{'metric':<16}{'A':>12}{'B':>12}"
          f"{'worse by':>10}{'bound':>8}")
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            try:
                base = a["workloads"][workload]["end_to_end"][m["name"]]["value"]
                new = b["workloads"][workload]["end_to_end"][m["name"]]["value"]
            except KeyError:
                print(f"{workload:<22}{m['name']:<16}  missing from a record")
                ok = False
                continue
            worse = worsening(base, new, m["better"])
            passed = worse <= m["bound"]
            ok = ok and passed
            print(
                f"{workload:<22}{m['name']:<16}{base:>12.5g}{new:>12.5g}"
                f"{worse:>+10.1%}{m['bound']:>8.0%}"
                f"{'' if passed else '  FAIL'}"
            )
    return ok


def print_sets(records: list[dict[str, Any]], spec: dict[str, Any]) -> None:
    """Median, quartiles, spread and largest deviation over full sets."""
    print(f"{'workload':<22}{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>9}{'max dev':>9}{'bound':>7}")
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            values = [
                r["workloads"][workload]["end_to_end"][m["name"]]["value"]
                for r in records
            ]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            deviation = max(abs(v - median) for v in values) / abs(median)
            print(
                f"{workload:<22}{m['name']:<16}{median:>12.5g}{q1:>12.5g}"
                f"{q3:>12.5g}{spread(values):>9.1%}{deviation:>9.1%}"
                f"{m['bound']:>7.0%}"
            )
