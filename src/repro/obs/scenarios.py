"""Observed scenario runners: one seeded workload under the flight recorder.

``python -m repro events`` runs one of four canonical scenarios (sysbench
OLTP, the chaos schedule, the sharded-cluster rebalance, the Raft
schedule) with a fresh :class:`~repro.obs.events.FlightRecorder` active,
through one entry point, :func:`run_observed`, which returns the
recorder and the scenario's verdict.

Determinism contract: given ``(name, seed, quick)`` the run is byte-
deterministic — the events dump must not change across double runs (CI
diffs them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.events import FlightRecorder, recording

#: Default seeds per scenario (match the CLI conventions).
DEFAULT_SEEDS = {"sysbench": 7, "chaos": 42, "cluster": 0, "raft": 11}


@dataclass
class ObservedRun:
    """One recorded scenario run and its verdict."""

    name: str
    seed: int
    recorder: FlightRecorder
    passed: bool = True


# ---------------------------------------------------------------------------
# sysbench: 8-client OLTP read_write on one replicated volume
# ---------------------------------------------------------------------------


def _run_sysbench(seed: int, quick: bool) -> bool:
    """Passes when nothing was unrepairable and the volume compresses."""
    from repro.api import ReproConfig, build_db
    from repro.engine import Engine
    from repro.workloads.sysbench import prepare_table, run_sysbench

    rows = 64 if quick else 256
    db = build_db(ReproConfig())
    loaded_us = prepare_table(db, rows=rows, seed=seed)
    result = run_sysbench(
        db,
        "read_write",
        duration_s=4.0,
        threads=8,
        key_range=rows,
        start_us=loaded_us,
        max_transactions=32 if quick else 128,
        seed=seed,
        engine=Engine(start_us=loaded_us),
    )
    end_us = db.checkpoint(loaded_us + result.elapsed_s * 1e6)
    db.store.scrub(end_us)
    unrepairable = sum(
        inst.value for inst in db.metrics.find("chaos.unrepairable")
    )
    return unrepairable == 0 and db.compression_ratio() >= 1.0


# ---------------------------------------------------------------------------
# chaos: the seeded fault-injection schedule
# ---------------------------------------------------------------------------


def _run_chaos(seed: int, quick: bool) -> bool:
    from repro.chaos.harness import run_chaos

    return run_chaos(
        seed=seed,
        ops=120 if quick else 400,
        pages=32 if quick else 64,
        scrub_every=40 if quick else 150,
        min_data_faults=2 if quick else 40,
    ).passed


# ---------------------------------------------------------------------------
# cluster: skewed ingest + compression-aware rebalance (Fig 10/11 shape)
# ---------------------------------------------------------------------------


def _run_cluster(seed: int, quick: bool) -> bool:
    """Passes when every row is readable after the rebalance."""
    from repro.bench.cluster_fig import build_skewed_runtime
    from repro.cluster.scheduler import CompressionAwareScheduler

    runtime, expected = build_skewed_runtime(
        shards=2 if quick else 3, chunks=4 if quick else 8, seed=seed
    )
    runtime.rebalance(CompressionAwareScheduler())
    return runtime.verify_readable(expected) >= len(expected)


# ---------------------------------------------------------------------------
# raft: elections, partitions, and leader crashes on one volume
# ---------------------------------------------------------------------------


def _run_raft(seed: int, quick: bool) -> bool:
    from repro.consensus.scenario import run_raft

    return run_raft(seed=seed, quick=quick).passed


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
) -> ObservedRun:
    """Run one scenario with a fresh :class:`FlightRecorder` active
    (scoped: a previously-active recorder is restored on exit)."""
    if name not in _RUNNERS:
        raise KeyError(
            f"unknown scenario {name!r}; options: {', '.join(SCENARIOS)}"
        )
    run = ObservedRun(
        name=name,
        seed=DEFAULT_SEEDS[name] if seed is None else seed,
        recorder=FlightRecorder(capacity=capacity, sample=sample),
    )
    with recording(run.recorder):
        run.passed = _RUNNERS[name](run.seed, quick)
    return run


__all__ = [
    "DEFAULT_SEEDS",
    "ObservedRun",
    "SCENARIOS",
    "run_observed",
]
