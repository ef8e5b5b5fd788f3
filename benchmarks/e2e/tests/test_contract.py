"""``BENCHMARK.json`` and what a run emits name the same things."""

import json
import re
import subprocess
import sys

from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_run_emits_exactly_the_declared_names(spec):
    """Runs ``--quick --trace`` (about a minute) and compares names both
    ways: nothing declared is missing, nothing emitted is undeclared."""
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--quick", "--trace"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
    latest = json.loads((E2E / "results" / "latest.json").read_text())
    assert latest["quick"] is True
    assert set(latest["workloads"]) == {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, doc in latest["workloads"].items():
        assert doc["failed"] == 0, name
        emitted = {k: v["unit"] for k, v in doc["end_to_end"].items()}
        assert emitted == end_to_end, name
        emitted = {k: v["unit"] for k, v in doc["per_layer"].items()}
        assert emitted == per_layer, name
        assert all(NAME.fullmatch(k) for k in doc["end_to_end"])
        assert all(NAME.fullmatch(k) for k in doc["per_layer"])
        # every metric is also printed by name with its unit
        for metric, unit in {**end_to_end, **per_layer}.items():
            assert re.search(
                rf"^\s+{re.escape(metric)}\s+\S+\s+{re.escape(unit)}\b",
                proc.stdout, re.M,
            ), metric


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command fails without printing a result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "page_read_zipf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
