"""Observed scenario runners: one workload, full observability plane.

``python -m repro events`` and ``python -m repro dash`` both need the
same thing: a seeded scenario running with the flight recorder active,
an :class:`~repro.obs.slo.SLOEvaluator` ticking on simulated time, and
a hook that fires periodically so a live view can redraw.  This module
packages the three canonical scenarios (sysbench OLTP, the chaos
schedule, the sharded-cluster rebalance) behind one entry point,
:func:`run_observed`, and returns everything a renderer needs — the
registries, the evaluator (with its per-spec history for sparklines),
the recorder, and the final verdict.

Determinism contract: given ``(name, seed, quick)`` the run is byte-
deterministic — the events dump and the HTML report must not change
across double runs (CI diffs them).  The tick daemon only *reads*
registries, so it never perturbs workload timing decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs.events import FlightRecorder, recording
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    BurnRateSLO,
    ErrorBudgetSLO,
    LatencySLO,
    SLOEvaluator,
    SLOReport,
    ThresholdSLO,
)

#: Default seeds per scenario (match the CLI conventions).
DEFAULT_SEEDS = {"sysbench": 7, "chaos": 42, "cluster": 0, "raft": 11}

#: ``on_tick(run, now_us)`` — fired every evaluator interval.
TickFn = Callable[["ObservedRun", float], None]


@dataclass
class ObservedRun:
    """Everything a renderer needs, live (via ``on_tick``) or post-hoc."""

    name: str
    seed: int
    quick: bool
    recorder: FlightRecorder
    evaluator: SLOEvaluator
    registries: List[MetricsRegistry] = field(default_factory=list)
    now_us: float = 0.0
    passed: bool = True
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def slo_report(self) -> SLOReport:
        return SLOReport(statuses=list(self.evaluator.last.values()))


def _tick(run: ObservedRun, on_tick: Optional[TickFn], now_us: float) -> None:
    run.now_us = now_us
    run.evaluator.evaluate(now_us)
    if on_tick is not None:
        on_tick(run, now_us)


# ---------------------------------------------------------------------------
# sysbench: 8-client OLTP read_write on one replicated volume
# ---------------------------------------------------------------------------


def _run_sysbench(
    run: ObservedRun, on_tick: Optional[TickFn], interval_us: float
) -> None:
    from repro.api import ReproConfig, build_db
    from repro.engine import Engine
    from repro.workloads.sysbench import prepare_table, run_sysbench

    rows = 64 if run.quick else 256
    txns = 32 if run.quick else 128
    db = build_db(ReproConfig())
    run.registries.append(db.metrics)
    ev = run.evaluator
    ev.attach(db.metrics)
    ev.add(LatencySLO(
        "sysbench.page_write_p99", "storage.page_write_us", 99, 20_000.0
    ))
    ev.add(LatencySLO(
        "sysbench.page_read_p99", "storage.page_read_us", 99, 20_000.0
    ))
    ev.add(BurnRateSLO(
        "sysbench.commit_burn", "storage.commits_per_window",
        allowed_per_window=2_000.0, windows=5, max_burn=1.0,
    ))
    ev.add(ErrorBudgetSLO(
        "sysbench.unrepairable", "chaos.unrepairable", budget=0.0
    ))
    ev.add(ThresholdSLO(
        "sysbench.compression_ratio",
        lambda: float(db.compression_ratio()),
        floor=1.0,
    ))

    loaded_us = prepare_table(db, rows=rows, seed=run.seed)
    engine = Engine(start_us=loaded_us)

    def watch():
        while True:
            yield engine.timeout(interval_us)
            _tick(run, on_tick, engine.now_us)

    watcher = engine.spawn(watch(), name="obs-tick")
    result = run_sysbench(
        db,
        "read_write",
        duration_s=4.0,
        threads=8,
        key_range=rows,
        start_us=loaded_us,
        max_transactions=txns,
        seed=run.seed,
        engine=engine,
    )
    watcher.cancel()
    end_us = db.checkpoint(loaded_us + result.elapsed_s * 1e6)
    scrubbed_us = db.store.scrub(end_us)
    _tick(run, on_tick, scrubbed_us)
    run.passed = run.slo_report.passed
    run.detail = {
        "rows": rows,
        "transactions": result.transactions,
        "tps": round(result.tps, 1),
        "p95_us": round(result.latency.p95_us, 1),
    }


# ---------------------------------------------------------------------------
# chaos: the seeded fault-injection schedule
# ---------------------------------------------------------------------------


def _run_chaos(
    run: ObservedRun, on_tick: Optional[TickFn], interval_us: float
) -> None:
    from repro.chaos.harness import run_chaos

    ops = 120 if run.quick else 400
    min_faults = 2 if run.quick else 40
    # The chaos loop is synchronous over ops (it owns its own clock), so
    # the tick hook rides ``on_progress`` instead of an engine daemon.
    every = max(1, ops // 32)

    def progress(op: int, now_us: float) -> None:
        if op % every == 0:
            _tick(run, on_tick, now_us)

    report = run_chaos(
        seed=run.seed,
        ops=ops,
        pages=32 if run.quick else 64,
        scrub_every=40 if run.quick else 150,
        min_data_faults=min_faults,
        on_progress=progress,
        evaluator=run.evaluator,
    )
    run.registries.append(report.metrics)
    run.now_us = max(
        run.now_us, max((s.t_us for s in run.evaluator.last.values()),
                        default=run.now_us)
    )
    run.passed = report.passed
    run.detail = {
        "ops": ops,
        "injected_data_faults": report.injected_data_faults,
        "repaired": sum(report.repaired.values()),
    }


# ---------------------------------------------------------------------------
# cluster: skewed ingest + compression-aware rebalance (Fig 10/11 shape)
# ---------------------------------------------------------------------------


def _run_cluster(
    run: ObservedRun, on_tick: Optional[TickFn], interval_us: float
) -> None:
    from repro.bench.cluster_fig import build_skewed_runtime
    from repro.cluster.scheduler import CompressionAwareScheduler

    shards = 2 if run.quick else 3
    chunks = 4 if run.quick else 8
    runtime, expected = build_skewed_runtime(
        shards=shards, chunks=chunks, seed=run.seed
    )
    run.registries.append(runtime.metrics)
    for shard in runtime.shards:
        run.registries.append(shard.store.metrics)
    ev = run.evaluator
    for registry in run.registries:
        ev.attach(registry)
    # ``verified`` is filled after the rebalance; until then the spec is
    # vacuously healthy (the engine must not be re-entered mid-run).
    verified: Dict[str, int] = {}
    ev.add(LatencySLO(
        "cluster.chunk_migration_p99", "cluster.migration.chunk_us",
        99, 5_000_000.0,
    ))
    ev.add(LatencySLO(
        "cluster.cutover_stall_p99", "cluster.migration.cutover_stall_us",
        99, 1_000_000.0,
    ))
    ev.add(ThresholdSLO(
        "cluster.readable",
        lambda: float(verified.get("rows", len(expected))),
        floor=float(len(expected)),
        message=lambda v: (
            f"cluster.readable: only {v:.0f} of {len(expected)} rows "
            f"readable after rebalance"
        ),
    ))

    engine = runtime.engine

    def watch():
        while True:
            yield engine.timeout(interval_us)
            _tick(run, on_tick, engine.now_us)

    watcher = engine.spawn(watch(), name="obs-tick")
    report = runtime.rebalance(CompressionAwareScheduler())
    watcher.cancel()
    verified["rows"] = runtime.verify_readable(expected)
    _tick(run, on_tick, engine.now_us)
    run.passed = run.slo_report.passed
    run.detail = {
        "shards": shards,
        "chunks": chunks,
        "tasks": len(report.tasks),
        "moved_pages": report.moved_pages,
        "makespan_ms": round(report.makespan_us / 1e3, 3),
    }


# ---------------------------------------------------------------------------
# raft: elections, partitions, and leader crashes on one volume
# ---------------------------------------------------------------------------


def _run_raft(
    run: ObservedRun, on_tick: Optional[TickFn], interval_us: float
) -> None:
    from repro.consensus.scenario import run_raft

    # The scenario owns its engine and SLO specs (the four split-brain
    # invariants plus schedule floors); the tick hook rides the per-ack
    # ``on_progress`` callback, like chaos.
    def progress(op: int, now_us: float) -> None:
        if op % 4 == 0:
            _tick(run, on_tick, now_us)

    report = run_raft(
        seed=run.seed,
        quick=run.quick,
        on_progress=progress,
        evaluator=run.evaluator,
    )
    run.registries.append(report.metrics)
    run.now_us = max(run.now_us, report.end_us)
    run.passed = report.passed
    run.detail = {
        "commits_acked": report.commits_acked,
        "elections": report.elections,
        "fences": report.fences,
        "leader_crashes": report.leader_crashes,
    }


_RUNNERS = {
    "sysbench": _run_sysbench,
    "chaos": _run_chaos,
    "cluster": _run_cluster,
    "raft": _run_raft,
}

SCENARIOS = tuple(sorted(_RUNNERS))


def run_observed(
    name: str,
    seed: Optional[int] = None,
    quick: bool = True,
    capacity: int = 65536,
    sample: Optional[Dict[str, int]] = None,
    on_tick: Optional[TickFn] = None,
    interval_us: float = 2_000.0,
) -> ObservedRun:
    """Run one scenario under the full observability plane.

    Activates a fresh :class:`FlightRecorder` for the duration (scoped:
    a previously-active recorder is restored on exit), attaches an
    :class:`SLOEvaluator` with scenario-appropriate specs, and fires
    ``on_tick(run, now_us)`` every ``interval_us`` of simulated time.
    """
    if name not in _RUNNERS:
        raise KeyError(
            f"unknown scenario {name!r}; options: {', '.join(SCENARIOS)}"
        )
    run = ObservedRun(
        name=name,
        seed=DEFAULT_SEEDS[name] if seed is None else seed,
        quick=quick,
        recorder=FlightRecorder(capacity=capacity, sample=sample),
        evaluator=SLOEvaluator(),
    )
    with recording(run.recorder):
        _RUNNERS[name](run, on_tick, interval_us)
    return run


__all__ = [
    "DEFAULT_SEEDS",
    "ObservedRun",
    "SCENARIOS",
    "run_observed",
]
