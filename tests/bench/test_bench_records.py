"""``BENCH_e2e.json``: the committed record of alternating parent/change
pairs that ``benchmarks/pairs.py --record`` appends to.

Only the committed file is read: no wall-clock number gates anything
here.  Each record must be self-consistent (its summary recomputes from
its own per-pair values), and a ``gain`` must satisfy the pair rule.
"""

import json
import statistics
from pathlib import Path

import pytest

from benchmarks.pairs import (
    MIN_PAIRS,
    VERDICTS,
    iqr,
    quartiles,
    verdict,
    wins,
)

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
FIELDS = {
    "source", "parent_rev", "change_rev", "date", "host", "seconds", "seed",
    "workload", "metric", "unit", "better", "n", "parent", "change",
    "parent_median", "parent_iqr", "change_median", "change_iqr", "won",
    "verdict",
}


def records():
    return json.loads((REPO / "BENCH_e2e.json").read_text())


def test_every_record_has_the_schema_and_recomputes():
    assert records(), "BENCH_e2e.json holds no record"
    for r in records():
        assert set(r) == FIELDS, r.get("metric")
        assert r["source"] == "pairs.py"
        assert r["workload"] in WORKLOADS
        metric = METRICS[r["metric"]]
        assert (r["unit"], r["better"]) == (metric["unit"], metric["better"])
        assert set(r["host"]) == {"nproc", "python"}
        parent, change = r["parent"], r["change"]
        assert r["n"] == len(parent) == len(change) >= 1
        assert r["parent_median"] == statistics.median(parent)
        assert r["change_median"] == statistics.median(change)
        assert r["parent_iqr"] == iqr(parent)
        assert r["change_iqr"] == iqr(change)
        assert r["won"] == wins(parent, change, r["better"])
        assert r["verdict"] in VERDICTS
        assert r["verdict"] == verdict(parent, change, r["better"])


def test_every_gain_has_enough_pairs_and_a_median_outside_the_parent_iqr():
    for r in records():
        if r["verdict"] != "gain":
            continue
        assert r["n"] >= MIN_PAIRS
        q1, _, q3 = quartiles(r["parent"])
        if r["better"] == "higher":
            assert r["change_median"] > q3
        else:
            assert r["change_median"] < q1


def test_the_closed_volume_claim_is_recorded():
    claim = [r for r in records()
             if (r["workload"], r["metric"]) == ("oltp_rw", "peak_rss_mb")]
    assert claim and claim[0]["verdict"] == "gain"
    assert claim[0]["change_median"] <= 60.0


def _pairs(parent, gaps):
    return parent, [p + g for p, g in zip(parent, gaps)]


@pytest.mark.parametrize("better, gaps, expected", [
    # Ten pairs, every one won, the median moved past the parent IQR.
    ("higher", [5.0] * 10, "gain"),
    ("lower", [-5.0] * 10, "gain"),
    ("higher", [-5.0] * 10, "loss"),
    ("lower", [5.0] * 10, "loss"),
    # Nine pairs are too few, whatever they show.
    ("higher", [5.0] * 9, "unresolved"),
    # Eight of ten won is not enough.
    ("higher", [5.0] * 8 + [-0.5] * 2, "unresolved"),
    # Every pair won, but by less than the parent's IQR.
    ("higher", [0.5] * 10, "unresolved"),
])
def test_the_pair_rule(better, gaps, expected):
    # Parent runs 100..104.5: IQR 2.25.
    parent = [100.0 + 0.5 * i for i in range(len(gaps))]
    assert verdict(*_pairs(parent, gaps), better) == expected
