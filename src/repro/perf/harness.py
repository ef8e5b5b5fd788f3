"""Wall-clock perf harness: pinned scenarios, serial vs fast (vs fanned out).

Everything the simulator *reports* is simulated time; this module is the
one place that measures **wall-clock** time (``time.perf_counter``).
Each scenario runs twice in-process — once with the perf runtime
deactivated (serial reference) and once with the codec memo configured —
and, with ``--workers N``, a scenario made of independent programs runs
once more with those programs fanned across forked workers
(``repro.engine.parallel``).  The harness asserts all runs are
*equivalent*: identical output bytes, identical simulated timings,
identical metric streams.  The memo and the fan-out are only allowed to
change how long the host takes to compute the same answer.

Equivalence is checked with a scenario *fingerprint*: a SHA-256 over the
scenario's own outputs (transaction counts, simulated latencies, chaos
report, experiment rows) plus the full metrics snapshot with ``perf.*``
instruments filtered out (those exist only when the fast path is on).
The metrics snapshot folds in every simulated duration, device byte
count, and checksum-driven counter in the stack, so any divergence —
a wrong byte, a perturbed simulated microsecond — flips the digest.

``python -m repro perf`` drives this module and writes the scoreboard
to ``BENCH_wallclock.json`` at the repo root; ``--check`` replays the
scenarios and fails (exit 1) when a speedup regresses by more than the
tolerance vs the committed baseline, which is the CI perf-smoke gate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.engine.parallel import workers_from_env
from repro.obs import events as obs_events
from repro.obs.slo import InvariantSLO, SLOEvaluator, ThresholdSLO
from repro.perf.runtime import (
    DEFAULT_MEMO_BYTES,
    PerfRuntime,
    configure,
    deactivate,
)

#: Committed baseline / default output artifact, at the repo root.
DEFAULT_REPORT = "BENCH_wallclock.json"

#: ``--check`` fails when a scenario's speedup drops below
#: ``baseline * (1 - REGRESSION_TOLERANCE)``.
REGRESSION_TOLERANCE = 0.30

#: Scenarios made of independent programs (separate engine universes)
#: that ``workers`` can fan out; only these get a parallel leg.  Its
#: byte-identity is an invariant and its wall-clock speedup is gated like
#: the fast path's, against the committed baseline with
#: :data:`REGRESSION_TOLERANCE`: the leg's fork overhead is fixed, so an
#: absolute floor would really be a statement about how slow the serial
#: leg is.  The speedup gate applies only when the host actually has 2+
#: cores — on a 1-core runner it would only test the scheduler, not the
#: code.
FANOUT_SCENARIOS = ("cluster_ingest",)


@dataclass
class ScenarioRun:
    """One execution of one scenario in one mode (serial or perf)."""

    fingerprint: str
    pages: int
    sim_us: float
    wall_s: float
    detail: Dict[str, object] = field(default_factory=dict)


def _metrics_digest(registry) -> str:
    """Digest every non-perf instrument: sim timings, bytes, counters.

    ``perf.*`` gauges are excluded because they exist only when the
    runtime is active — they describe the fast path itself, not the
    simulated universe, and are reported separately in the scoreboard.
    """
    instruments = [
        inst.describe()
        for inst in registry.instruments()
        if not inst.name.startswith("perf.")
    ]
    blob = json.dumps(instruments, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _page_ops(registry) -> int:
    """Pages moved through the store: committed writes + served reads."""
    return sum(
        hist.count
        for name in ("storage.page_write_us", "storage.page_read_us")
        for hist in registry.find(name)
    )


# ---------------------------------------------------------------------------
# scenarios — pinned seeds, fixed workload shapes
# ---------------------------------------------------------------------------


def scenario_sysbench8(quick: bool = False) -> ScenarioRun:
    """8-client sysbench read_write on one replicated volume.

    The headline scenario: the bulk load's checkpoint consolidates every
    dirty page on all three replicas with identical page images, which
    is exactly the duplicate work the codec memo collapses.
    """
    from repro.api import ReproConfig, build_db
    from repro.workloads.sysbench import prepare_table, run_sysbench

    rows = 64 if quick else 320
    txns = 24 if quick else 96
    db = build_db(ReproConfig())
    loaded_us = prepare_table(db, rows=rows, seed=7)
    result = run_sysbench(
        db,
        "read_write",
        duration_s=4.0,
        threads=8,
        key_range=rows,
        start_us=loaded_us,
        max_transactions=txns,
        seed=7,
    )
    store = db.store
    # Post-run housekeeping, same as production: checkpoint the dirty
    # tail, then run the background integrity scrub.  The scrub re-reads
    # every page on every replica — three decompressions of identical
    # payloads per page — which is the duplicate work the memo exists
    # to collapse.
    end_us = db.checkpoint(loaded_us + result.elapsed_s * 1e6)
    scrubbed_us = store.scrub(end_us)
    # Byte-identity read-back: hash the materialized contents of a fixed
    # sample of live pages at a fixed simulated instant.
    digest = hashlib.sha256()
    now = scrubbed_us + 1e6
    pages = sorted(pn for pn, _ in store.leader.index.items())
    for page_no in pages[:: max(1, len(pages) // 24)]:
        read = store.read_page(now, page_no)
        now = read.done_us
        digest.update(page_no.to_bytes(8, "little"))
        digest.update(bytes(read.data))
    digest.update(_metrics_digest(store.metrics).encode())
    digest.update(
        json.dumps(
            {
                "loaded_us": loaded_us,
                "end_us": end_us,
                "scrubbed_us": scrubbed_us,
                "transactions": result.transactions,
                "elapsed_s": result.elapsed_s,
                "mean_us": result.latency.mean_us,
                "p95_us": result.latency.p95_us,
            },
            sort_keys=True,
        ).encode()
    )
    return ScenarioRun(
        fingerprint=digest.hexdigest(),
        pages=_page_ops(store.metrics),
        sim_us=now,
        wall_s=0.0,
        detail={"transactions": result.transactions, "rows": rows},
    )


def scenario_chaos_smoke(quick: bool = False) -> ScenarioRun:
    """Seeded fault-injection smoke: corruption must not perturb results.

    Exercises the memo's verified-only discipline end to end — bit
    flips, torn and misdirected writes flow through the same read path
    the memo serves, and the rendered invariant report must match the
    serial run byte for byte.
    """
    from repro.chaos.harness import run_chaos

    ops = 80 if quick else 160
    report = run_chaos(
        seed=42,
        ops=ops,
        pages=32,
        scrub_every=40,
        min_data_faults=2,
    )
    digest = hashlib.sha256(report.render().encode())
    digest.update(_metrics_digest(report.metrics).encode())
    if not report.passed:
        raise AssertionError(
            f"chaos invariants violated: {report.violations}"
        )
    return ScenarioRun(
        fingerprint=digest.hexdigest(),
        pages=report.writes + report.reads,
        sim_us=0.0,
        wall_s=0.0,
        detail={
            "ops": ops,
            "injected_data_faults": report.injected_data_faults,
        },
    )


def scenario_cluster_ingest(
    quick: bool = False, workers: int = 1
) -> ScenarioRun:
    """Skewed-ingest + live migration on the sharded runtime (Fig 10/11
    shape, smaller fleet): cross-volume duplicate page images during
    migration catch-up are the memo's cluster-level win.

    ``workers > 1`` fans the two independent scheduler-leg fleets across
    worker processes — the parallel leg whose speedup the harness
    gates."""
    from repro.bench.cluster_fig import run_fig10_11

    shards = 2 if quick else 3
    chunks = 4 if quick else 8
    with tempfile.TemporaryDirectory() as scratch:
        result = run_fig10_11(
            out_dir=scratch,
            shards=shards,
            chunks=chunks,
            seed=0,
            quiet=True,
            workers=workers,
        )
    blob = json.dumps(result.to_dict(), sort_keys=True, default=repr)
    rows = {row[0]: dict(zip(result.columns, row)) for row in result.rows}
    moved = sum(
        int(r["moved_pages"]) + int(r["catchup_pages"]) for r in rows.values()
    )
    return ScenarioRun(
        fingerprint=hashlib.sha256(blob.encode()).hexdigest(),
        pages=moved,
        sim_us=max(float(r["makespan_ms"]) * 1e3 for r in rows.values()),
        wall_s=0.0,
        detail={"shards": shards, "chunks": chunks, "moved_pages": moved},
    )


SCENARIOS: Dict[str, Callable[..., ScenarioRun]] = {
    "sysbench8": scenario_sysbench8,
    "chaos_smoke": scenario_chaos_smoke,
    "cluster_ingest": scenario_cluster_ingest,
}


# ---------------------------------------------------------------------------
# A/B driver
# ---------------------------------------------------------------------------


def _timed(
    fn: Callable[..., ScenarioRun], quick: bool, workers: int = 1
) -> ScenarioRun:
    # Rewind the process-global node-name counter so every run of a
    # scenario builds "node-0/1/2..." — metric labels must line up for
    # the fingerprints to be comparable.  The reset happens before any
    # fork, so worker children inherit the rewound counter too.
    import itertools

    from repro.storage import store as store_mod

    store_mod._node_counter = itertools.count()
    gc.collect()
    start = time.perf_counter()
    run = fn(quick, workers=workers) if workers > 1 else fn(quick)
    run.wall_s = time.perf_counter() - start
    return run


def _peak_rss_bytes() -> int:
    """Peak resident set, harness process + reaped fan-out workers."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + child_kib) * 1024


def run_harness(
    scenario_names: Optional[List[str]] = None,
    quick: bool = False,
    verbose: bool = True,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Run each scenario serial/fast (and parallel); build the scoreboard.

    The fast leg runs under the codec memo at its default size.
    ``workers >= 2`` adds a parallel leg to :data:`FANOUT_SCENARIOS`: the
    scenario re-runs with its independent programs fanned across forked
    workers (``repro.engine.parallel``) and the perf runtime off, and its
    fingerprint must equal the serial reference byte for byte.  The
    default comes from ``REPRO_WORKERS`` (unset → no parallel leg).

    A scenario that raises does not abort the harness: the failure is
    contained to its scoreboard row (``"error"`` key, ``identical:
    False``) and the remaining scenarios still run, so one broken
    scenario reports alongside — not instead of — the others.
    """
    names = scenario_names or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {unknown}; options: {sorted(SCENARIOS)}"
        )
    if workers is None:
        workers = workers_from_env() or 1
    workers = max(1, int(workers))

    def say(msg: str) -> None:
        if verbose:
            print(msg, file=sys.stderr)

    scoreboard: Dict[str, object] = {
        "version": 3,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "perf_spec": {"memo_capacity_bytes": DEFAULT_MEMO_BYTES},
        "scenarios": {},
    }
    total_saved = 0.0
    for name in names:
        fn = SCENARIOS[name]
        try:
            say(f"[{name}] serial reference ...")
            deactivate()
            serial = _timed(fn, quick)
            say(f"[{name}] serial: {serial.wall_s:.3f}s wall, "
                f"{serial.pages} page ops")
            runtime = configure(PerfRuntime())
            # The fast leg runs with the flight recorder ACTIVE while the
            # serial leg ran with it off.  The fingerprints must still
            # match: that equality is the standing proof that
            # observability is sim-time- and byte-neutral (recorder state
            # never enters the metrics digest — its bookkeeping is plain
            # attributes, not registry instruments).
            recorder = obs_events.activate(
                obs_events.FlightRecorder(capacity=16384)
            )
            try:
                say(f"[{name}] fast path (codec memo) ...")
                fast = _timed(fn, quick)
                stats = runtime.stats()
            finally:
                deactivate()
                obs_events.deactivate()
            parallel_block: Optional[Dict[str, object]] = None
            if workers > 1 and name in FANOUT_SCENARIOS:
                # Parallel leg: the scenario's independent programs fanned
                # across forked workers, perf runtime off.
                say(f"[{name}] parallel ({workers} workers) ...")
                par = _timed(fn, quick, workers=workers)
                p_identical = par.fingerprint == serial.fingerprint
                p_speedup = (
                    serial.wall_s / par.wall_s if par.wall_s > 0 else 0.0
                )
                say(f"[{name}] parallel: {par.wall_s:.3f}s wall "
                    f"({p_speedup:.2f}x), identical={p_identical}")
                parallel_block = {
                    "identical": p_identical,
                    "wall_s": round(par.wall_s, 4),
                    "speedup": round(p_speedup, 3),
                }
        except Exception:
            tb = traceback.format_exc()
            deactivate()
            obs_events.deactivate()
            say(f"[{name}] ERROR:\n{tb}")
            scoreboard["scenarios"][name] = {
                "identical": False,
                "error": tb.strip().splitlines()[-1],
            }
            continue
        identical = fast.fingerprint == serial.fingerprint
        speedup = serial.wall_s / fast.wall_s if fast.wall_s > 0 else 0.0
        total_saved += stats["codec_calls_saved"]
        say(f"[{name}] fast  : {fast.wall_s:.3f}s wall "
            f"({speedup:.2f}x), identical={identical}, memo hit rate "
            f"{stats['memo']['hit_rate']:.3f}")
        row: Dict[str, object] = {
            "identical": identical,
            "serial_wall_s": round(serial.wall_s, 4),
            "perf_wall_s": round(fast.wall_s, 4),
            "speedup": round(speedup, 3),
            "pages": serial.pages,
            "pages_per_s_serial": round(serial.pages / serial.wall_s, 1)
            if serial.wall_s > 0 else 0.0,
            "pages_per_s_perf": round(fast.pages / fast.wall_s, 1)
            if fast.wall_s > 0 else 0.0,
            "sim_us": serial.sim_us,
            "codec_calls_saved": stats["codec_calls_saved"],
            "memo": stats["memo"],
            "events_recorded": recorder.total_emitted,
            "detail": serial.detail,
        }
        if parallel_block is not None:
            row["parallel"] = parallel_block
        scoreboard["scenarios"][name] = row
    scoreboard["codec_calls_saved_total"] = total_saved
    scoreboard["peak_rss_bytes"] = _peak_rss_bytes()
    return scoreboard


def write_report(scoreboard: Dict[str, object], path: str) -> str:
    with open(path, "w") as handle:
        json.dump(scoreboard, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def check_regression(
    scoreboard: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Compare a fresh scoreboard against the committed baseline.

    The gate is on *speedup* (fast vs serial on the same host in the
    same process), which normalizes away absolute machine speed; raw
    pages/sec are reported for humans but not gated.  When the fresh
    run carried a parallel leg, its byte-identity is an invariant and —
    on a multi-core host — its speedup is held to the baseline's the
    same way.  A scenario that raised is itself a violation, reported
    alongside the rest.

    Every pass/fail decision is expressed as an SLO spec and routed
    through :class:`repro.obs.slo.SLOEvaluator` — the same evaluator
    that judges the chaos invariants and the live-scenario SLOs — so
    there is exactly one verdict engine in the tree.
    """
    evaluator = SLOEvaluator()
    base_scenarios = baseline.get("scenarios", {})
    fresh_scenarios = scoreboard.get("scenarios", {})
    cpu_count = int(scoreboard.get("cpu_count") or 1)
    for name, fresh in fresh_scenarios.items():
        if "error" in fresh:
            evaluator.add(InvariantSLO(
                f"perf.{name}.completed",
                lambda name=name, err=fresh["error"]: [
                    f"{name}: scenario raised: {err}"
                ],
                description="scenario runs to completion",
            ))
            continue
        parallel = fresh.get("parallel")
        if parallel is not None:
            if not parallel["identical"]:
                evaluator.add(InvariantSLO(
                    f"perf.{name}.parallel_identical",
                    lambda name=name: [
                        f"{name}: parallel-leg output DIVERGED "
                        f"from serial reference"
                    ],
                    description="parallel fingerprint equals serial",
                ))
            elif cpu_count >= 2:
                base_parallel = base_scenarios.get(name, {}).get("parallel")
                if base_parallel is not None:
                    floor = base_parallel["speedup"] * (1.0 - tolerance)
                    evaluator.add(ThresholdSLO(
                        f"perf.{name}.parallel_speedup",
                        lambda parallel=parallel: float(parallel["speedup"]),
                        floor=floor,
                        message=lambda v, name=name, floor=floor,
                        base_parallel=base_parallel: (
                            f"{name}: parallel speedup {v:.2f}x regressed "
                            f"below {floor:.2f}x (baseline "
                            f"{base_parallel['speedup']:.2f}x, tolerance "
                            f"{tolerance:.0%}) on a {cpu_count}-core host"
                        ),
                    ))
        if not fresh["identical"]:
            evaluator.add(InvariantSLO(
                f"perf.{name}.identical",
                lambda name=name: [
                    f"{name}: fast-path output DIVERGED "
                    f"from serial reference"
                ],
                description="fast-path fingerprint equals serial",
            ))
            continue
        base = base_scenarios.get(name)
        if base is None:
            continue  # new scenario: no baseline yet, nothing to gate
        floor = base["speedup"] * (1.0 - tolerance)
        evaluator.add(ThresholdSLO(
            f"perf.{name}.speedup",
            lambda fresh=fresh: float(fresh["speedup"]),
            floor=floor,
            message=lambda v, name=name, floor=floor, base=base: (
                f"{name}: speedup {v:.2f}x regressed "
                f"below {floor:.2f}x "
                f"(baseline {base['speedup']:.2f}x, "
                f"tolerance {tolerance:.0%})"
            ),
        ))
    missing = [n for n in base_scenarios if n not in fresh_scenarios]
    if missing:
        evaluator.add(InvariantSLO(
            "perf.coverage",
            lambda missing=tuple(missing): [
                f"{n}: scenario missing from fresh run" for n in missing
            ],
            description="every baseline scenario still runs",
        ))
    return evaluator.report(0.0).violations()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="wall-clock A/B harness: serial vs codec-memo fast "
                    "path (vs fan-out with --workers)",
    )
    parser.add_argument(
        "--scenario", action="append", choices=sorted(SCENARIOS),
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed workload sizes for smoke/CI runs",
    )
    parser.add_argument(
        "--out", default=None,
        help=f"write the scoreboard JSON here (default: {DEFAULT_REPORT} "
             "at the repo root; '-' to skip writing)",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare against this committed scoreboard and exit 1 on "
             f">{REGRESSION_TOLERANCE:.0%}% speedup regression",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="re-run scenarios made of independent programs "
             f"({', '.join(FANOUT_SCENARIOS)}) fanned across N worker "
             "processes and require the fingerprint to equal serial "
             "(default: $REPRO_WORKERS, else no parallel leg)",
    )
    args = parser.parse_args(argv)

    scoreboard = run_harness(
        scenario_names=args.scenario,
        quick=args.quick,
        workers=args.workers,
    )
    diverged = [
        name
        for name, row in scoreboard["scenarios"].items()
        if "error" in row
        or not row["identical"]
        or not row.get("parallel", {"identical": True})["identical"]
    ]
    if args.check is not None:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_regression(scoreboard, baseline)
        for failure in failures:
            print(f"perf-regression: {failure}", file=sys.stderr)
        if not failures:
            print("perf check: all scenarios identical, speedups within "
                  f"{REGRESSION_TOLERANCE:.0%} of baseline")
        print(json.dumps(scoreboard, indent=2, sort_keys=True))
        return 1 if failures else 0
    out = args.out or DEFAULT_REPORT
    if out != "-":
        write_report(scoreboard, out)
        print(f"wrote {out}")
    print(json.dumps(scoreboard, indent=2, sort_keys=True))
    return 1 if diverged else 0


if __name__ == "__main__":
    sys.exit(main())
