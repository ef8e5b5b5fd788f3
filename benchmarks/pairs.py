#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

Runs ``benchmarks/e2e/run.py`` as a black box on two trees: the parent
revision, exported with ``git archive`` into a temporary directory, and
this working tree (the change).  Each pair runs both sides once, and
the side that runs first alternates from pair to pair, so a host that
speeds up or slows down over the session charges both sides alike::

    python3 benchmarks/pairs.py --parent HEAD~1 --workload oltp_rw \\
        --pairs 10 --seconds 10 [--seed N] [--record]

The exact metrics (simulated numbers and stored-byte ratios) must be
bit-identical across every run, on both sides.  For each host metric the report gives both sides' median and
interquartile range, how many pairs the change won, and the verdict of
the pair rule (:func:`verdict`).  ``--record`` appends one record per
(workload, host metric) to ``BENCH_e2e.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
RECORDS = ROOT / "BENCH_e2e.json"
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: Fewest pairs that can resolve a verdict.
MIN_PAIRS = 10
#: Share of pairs a side must win for a gain (or lose for a loss).
WIN_SHARE = 0.9
VERDICTS = ("gain", "loss", "unresolved")


# ---------------------------------------------------------------------------
# the pair rule
# ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> List[float]:
    """(Q1, median, Q3), inclusive method: the quartiles of the values
    themselves, so one run has IQR 0."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def iqr(values: Sequence[float]) -> float:
    q1, _, q3 = quartiles(values)
    return q3 - q1


def wins(parent: Sequence[float], change: Sequence[float],
         better: str) -> int:
    """Pairs in which the change is strictly better than its parent run."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str) -> str:
    """``gain`` when the change won at least ``WIN_SHARE`` of at least
    ``MIN_PAIRS`` pairs and its median beats the parent's by more than
    the parent's IQR (so it lies outside that IQR); ``loss`` is the
    mirror image; anything else is ``unresolved``, never "unchanged"."""
    n = len(parent)
    if n != len(change) or n < MIN_PAIRS:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    gap = sign * (statistics.median(change) - statistics.median(parent))
    spread = iqr(parent)
    won = wins(parent, change, better)
    lost = wins(change, parent, better)
    if gap > spread and won >= WIN_SHARE * n:
        return "gain"
    if -gap > spread and lost >= WIN_SHARE * n:
        return "loss"
    return "unresolved"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
        text=True,
    ).stdout.strip()


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run_once(tree: Path, workload: str, seconds: float,
             seed: int) -> Dict[str, float]:
    """One benchmark run in ``tree``; returns metric name -> value."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tree / RUNNER), "--workload", workload,
         "--seconds", repr(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("correct"):
        raise SystemExit(
            f"{workload} in {tree}: run failed (exit {proc.returncode}): "
            f"{lines[-1] if lines else 'no output'}"
        )
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(parent_tree: Path, workload: str, pairs: int,
              seconds: float, seed: int) -> Dict[str, List[Dict[str, float]]]:
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    trees = {"parent": parent_tree, "change": ROOT}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(
                run_once(trees[side], workload, seconds, seed)
            )
            print(f"# {workload} pair {i + 1}/{pairs} {side}: "
                  + " ".join(f"{k}={v:.6g}"
                             for k, v in sorted(runs[side][-1].items())),
                  file=sys.stderr, flush=True)
    return runs


def exact_mismatches(runs, exact: Sequence[str]) -> List[str]:
    """Exact metrics that differ within a side or across sides."""
    problems = []
    for name in exact:
        per_side = {side: {r[name] for r in rs} for side, rs in runs.items()}
        for side, values in per_side.items():
            if len(values) > 1:
                problems.append(f"{name} varies across {side} runs: "
                                f"{sorted(values)}")
        if per_side["parent"] != per_side["change"]:
            problems.append(f"{name} moved: parent {sorted(per_side['parent'])}"
                            f" change {sorted(per_side['change'])}")
    return problems


def summarize(workload: str, runs, spec: dict, exact: Sequence[str],
              meta: dict) -> List[dict]:
    records = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in exact:
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        records.append(dict(
            meta,
            workload=workload,
            metric=name,
            unit=metric["unit"],
            better=metric["better"],
            n=len(parent),
            parent=parent,
            change=change,
            parent_median=statistics.median(parent),
            parent_iqr=iqr(parent),
            change_median=statistics.median(change),
            change_iqr=iqr(change),
            won=wins(parent, change, metric["better"]),
            verdict=verdict(parent, change, metric["better"]),
        ))
    return records


def table(records: List[dict]) -> str:
    lines = [
        "| workload | metric | parent median (IQR) | change median (IQR) "
        "| won | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for r in records:
        lines.append(
            f"| `{r['workload']}` | `{r['metric']}` "
            f"| {r['parent_median']:.6g} ({r['parent_iqr']:.3g}) "
            f"| {r['change_median']:.6g} ({r['change_iqr']:.3g}) "
            f"| {r['won']}/{r['n']} | {r['verdict']} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run (repeatable)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per run")
    parser.add_argument("--seed", type=int, default=0,
                        help="the workloads' seed (run.py's --seed)")
    parser.add_argument("--record", action="store_true",
                        help=f"append the records to {RECORDS.name}")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs and --seconds must be positive, --seed "
                     "not negative")

    sys.path.insert(0, str(ROOT / RUNNER.parent))
    from run import EXACT_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {
        "source": "pairs.py",
        "parent_rev": git("rev-parse", "--short=12", args.parent),
        "change_rev": git("rev-parse", "--short=12", "HEAD") + (
            # Records appended by an earlier run do not make a tree dirty.
            "-dirty" if git("status", "--porcelain", "--", ".",
                            f":(exclude){RECORDS.name}") else ""
        ),
        "date": datetime.date.today().isoformat(),
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version()},
        "seconds": args.seconds,
        "seed": args.seed,
    }
    records, problems = [], []
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        export(args.parent, Path(tmp))
        for workload in args.workload:
            runs = run_pairs(Path(tmp), workload, args.pairs, args.seconds,
                             args.seed)
            problems += [f"{workload}: {p}" for p in
                         exact_mismatches(runs, EXACT_METRICS)]
            records += summarize(workload, runs, spec, EXACT_METRICS, meta)
    print(table(records))
    for problem in problems:
        print(f"EXACT METRIC MISMATCH: {problem}")
    if args.record:
        existing = json.loads(RECORDS.read_text()) if RECORDS.exists() else []
        RECORDS.write_text(json.dumps(existing + records, indent=1) + "\n")
        print(f"# {len(records)} records appended to {RECORDS.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
