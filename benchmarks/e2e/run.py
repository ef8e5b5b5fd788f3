#!/usr/bin/env python3
"""PolarStore reproduction: end-to-end and per-layer benchmark.

One workload, as the benchmark driver calls it (the last line of stdout
is the result object)::

    python3 benchmarks/e2e/run.py --workload oltp_rw --seed 3 \\
        --seconds 10 --trace 0

All four workloads, every metric by name with its unit, results under
``benchmarks/e2e/results/``::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--quick]
    python3 benchmarks/e2e/run.py --check-repeat

See ``README.md`` beside this file for what each workload isolates and
how to read the numbers.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
# The benchmark measures the default configuration: no fast path, no
# workers, no flight recorder, whatever the caller's shell exports.
for _name in ("REPRO_PERF", "REPRO_WORKERS", "REPRO_OBS"):
    os.environ.pop(_name, None)
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: Metrics that are a pure function of the seed: they must repeat exactly.
EXACT_METRICS = ("sim_ops_per_s", "sim_mean_us", "sim_p99_us",
                 "stored_bytes_per_user_byte", "write_amp")


def _result_path(workload: str, trace: int) -> Path:
    return RESULTS / f"run_{workload}_trace{trace}.json"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    import hostspeed

    start_s = time.perf_counter() - _PROCESS_START
    before = hostspeed.probe()
    start = time.perf_counter()
    try:
        import harness
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = start_s + time.perf_counter() - start
    import_s *= hostspeed.speed(before, hostspeed.probe())
    result = harness.run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        import_s=import_s,
    )
    RESULTS.mkdir(exist_ok=True)
    trace_doc = result.pop("trace_doc", None)
    if trace_doc is not None:
        path = RESULTS / f"trace_{args.workload}.json"
        path.write_text(json.dumps(trace_doc))
        print(f"# trace written to {path.relative_to(ROOT)}")
    print(f"# {args.workload} seed={args.seed} seconds={result['seconds']:g} "
          f"trace={args.trace} scale={result['scale']:g}: "
          f"{result['timed_ops']} {result['op_unit']} in "
          f"{result['batches']} batches, exact prefix "
          f"{result['exact_ops']} {result['op_unit']}")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    # The whole document (details included), for run_all to pick up.
    _result_path(args.workload, args.trace).write_text(json.dumps(result))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# all workloads, one child process each
# ---------------------------------------------------------------------------


def _child_run(workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh process (its own peak RSS, its own
    import and set-up cost) and return its full result document."""
    path = _result_path(workload, trace)
    path.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--trace", str(trace),
        *(["--seconds", repr(args.seconds)] if args.seconds else []),
        *(["--quick"] if args.quick else []),
    ]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if not path.exists():
        print(proc.stdout, end="")
        raise RuntimeError(
            f"{workload}: run exited with code {proc.returncode} "
            "and wrote no result"
        )
    return json.loads(path.read_text())


def run_set(args, spec: dict, trace: bool) -> dict:
    """Every workload once (plus a traced pass when asked)."""
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        result = _child_run(workload, args, trace=0)
        doc = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failed_share": result["failed"] / max(result["attempted"], 1),
            "seconds": result["seconds"],
            "scale": result["scale"],
            "timed_ops": result["timed_ops"],
            "exact_ops": result["exact_ops"],
            "end_to_end": result["metrics"],
            "details": result.get("details", {}),
        }
        if trace:
            traced = _child_run(workload, args, trace=1)
            doc["per_layer"] = traced["metrics"]
            doc["correct"] = doc["correct"] and traced["correct"]
        out[workload] = doc
        _print_workload(workload, doc, spec)
    return out


def _print_workload(workload: str, doc: dict, spec: dict) -> None:
    clocks = {m["name"]: ("simulated/exact" if m["name"] in EXACT_METRICS
                          else "host" if m["name"] == "peak_rss_mb"
                          else "host, reference s")
              for m in spec["end_to_end"]}
    print(f"\n== {workload}: {doc['timed_ops']} timed ops, "
          f"failed_share {doc['failed_share']:.6g} "
          f"({doc['failed']}/{doc['attempted']}) ==")
    for name, metric in doc["end_to_end"].items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']:6s}"
              f" [{clocks[name]}]")
    for name, metric in doc.get("per_layer", {}).items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")


def _host() -> dict:
    def git(*argv: str) -> str:
        try:
            return subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""

    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def check_repeat(first: dict, second: dict, spec: dict) -> bool:
    """Two sets of runs of the same code must agree: host metrics within
    their own bound (``setup_s`` is only printed), exact metrics and
    counts bit-for-bit."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print("\n== check-repeat: |second - first| / first per metric ==")
    for workload, a in first.items():
        b = second[workload]
        for name, bound in bounds.items():
            x = a["end_to_end"][name]["value"]
            y = b["end_to_end"][name]["value"]
            diff = abs(y - x) / abs(x) if x else float(x != y)
            if name in EXACT_METRICS:
                good, rule = x == y, "exact"
            elif name == "setup_s":
                # One set-up of 0.3 s is mostly interpreter start and
                # imports, which moved by 0.1 s between two processes on
                # a busy host; the driver exempts its spread as well.
                good, rule = True, "not checked"
            else:
                good, rule = diff <= bound, f"<= {bound:g}"
            ok &= good
            print(f"  {workload:16s} {name:28s} {diff:10.5f} ({rule}) "
                  f"{'ok' if good else 'DIFFERS'}")
        counts_a = a["details"]["exact_counts"]
        counts_b = b["details"]["exact_counts"]
        differing = sorted(k for k in counts_a if counts_a[k] != counts_b[k])
        same_failures = a["failed"] == b["failed"]
        ok &= not differing and same_failures
        print(f"  {workload:16s} {len(counts_a)} exact counts "
              f"{'identical' if not differing else 'DIFFER: ' + str(differing)}"
              f"; failed {a['failed']} vs {b['failed']}")
    return ok


def run_all(args) -> int:
    spec = _spec()
    # Read the program's files once, unmeasured: otherwise the first
    # workload alone pays for a cold file cache in its setup_s.
    subprocess.run(
        [sys.executable, "-c", "import repro.api, repro.net.client"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
    )
    first = run_set(args, spec, trace=bool(args.trace))
    ok = all(doc["correct"] for doc in first.values())
    # One common factor on every workload's duration and exact prefix.
    scale, seconds = next(
        (doc["scale"], doc["seconds"]) for doc in first.values())
    document = {
        "quick": args.quick,
        "seed": args.seed,
        "seconds": seconds,
        "scale": scale,
        "host": _host(),
        "workloads": first,
    }
    if args.check_repeat:
        second = run_set(args, spec, trace=False)
        ok &= all(doc["correct"] for doc in second.values())
        repeat_ok = check_repeat(first, second, spec)
        document["repeat"] = {"agrees": repeat_ok, "workloads": second}
        ok &= repeat_ok
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(document, indent=1))
    if not args.quick:
        # The trajectory as data: one line per full run.
        line = dict(document["host"], seed=args.seed, scale=scale,
                    seconds=seconds)
        line["end_to_end"] = {
            workload: {k: v["value"] for k, v in doc["end_to_end"].items()}
            for workload, doc in first.items()
        }
        # What the host's speed was, so the wall-clock figures can be
        # had back from the reference-second ones.
        line["host_speed"] = {
            workload: doc["details"]["host_speed"]
            for workload, doc in first.items()
        }
        with open(RESULTS / "history.jsonl", "a") as handle:
            handle.write(json.dumps(line) + "\n")
    print(f"\nresults: {(RESULTS / 'latest.json').relative_to(ROOT)}"
          f"{'  (quick: not comparable with a full run)' if args.quick else ''}")
    if not ok:
        print("FAILED: see above", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]],
        help="run this one workload in-process and print its result "
             "object as the last line (default: run all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload input seed (default: 0)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed batch time per workload (default: run_seconds from "
             "BENCHMARK.json; a quarter of it with --quick)")
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="traced run: per-layer metrics instead of (with --workload) "
             "or as well as (without) the end-to-end ones")
    parser.add_argument(
        "--quick", action="store_true",
        help="all four workloads at scale 0.25 with one set-up each "
             "(about 35 s); marked quick, never comparable with a full run")
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run the untraced set twice and fail unless host metrics "
             "agree within their bounds and exact metrics bit-for-bit")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
