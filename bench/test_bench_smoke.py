"""Smoke test of the benchmark itself: ``pytest bench/``.

Outside tier-1's ``testpaths``: it boots the live cluster 33 times
and takes about a minute and a half.
"""

import copy
import json
import re
import subprocess
import sys

import pytest

from bench import ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def record(tmp_path_factory) -> tuple[dict, str]:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = bench("--quick", "--traced", "--seed", "0", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), str(out)


def test_names_match_the_spec(spec, record):
    data, _ = record
    assert list(data["workloads"]) == [w["name"] for w in spec["workloads"]]
    for entry in data["workloads"].values():
        assert list(entry["end_to_end"]) == [
            m["name"] for m in spec["end_to_end"]
        ]
        assert list(entry["traced_run"]["per_layer"]) == [
            m["name"] for m in spec["per_layer"]
        ]
        assert entry["correct"] and entry["traced_run"]["correct"]
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    )
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_end_to_end_metrics_are_complete(record):
    data, _ = record
    for entry in data["workloads"].values():
        for metric in entry["end_to_end"].values():
            assert metric["value"] > 0
            assert metric["unit"]
            assert metric["better"] in ("lower", "higher")
            assert 0 < metric["bound"] <= 0.25
            assert metric["n"] >= 1


def test_missing_layers_are_reported_not_fatal(record):
    data, _ = record
    for entry in data["workloads"].values():
        assert entry["traced_run"]["missing_layers"] == []


def test_compare_passes_on_itself_and_fails_on_half_throughput(
    record, tmp_path
):
    data, path = record
    assert bench("--compare", path, path).returncode == 0
    halved = copy.deepcopy(data)
    halved["workloads"]["http_write_closed"]["end_to_end"]["ops_per_s"][
        "value"
    ] /= 2
    worse = tmp_path / "halved.json"
    worse.write_text(json.dumps(halved), encoding="utf-8")
    done = bench("--compare", path, str(worse))
    assert done.returncode == 1
    assert "FAIL" in done.stdout
