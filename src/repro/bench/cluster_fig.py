"""The Figure 10/11 scheduling scenario on the live sharded runtime.

Builds two identically-seeded :class:`~repro.cluster.runtime
.ClusterRuntime` fleets and ingests the same skewed tenant layout into
both: chunk compressibility is correlated with placement order, so
logical-only placement (what both fleets use at ingest) lands all the
well-compressing chunks on one half of the shards and all the
incompressible ones on the other — logically balanced, physically
lopsided, exactly the Figure 9a stranding.  One fleet then rebalances
with the :class:`~repro.cluster.scheduler.LogicalOnlyScheduler` (which
sees nothing wrong) and the other with the
:class:`~repro.cluster.scheduler.CompressionAwareScheduler`; every byte
a plan moves is a real page read from the source replica group and
re-compressed through the target's write path, so the migration traffic
and the before/after waste fractions are measured, not modeled.

Shared by ``python -m repro cluster`` and
``benchmarks/bench_fig10_11_scheduling.py`` — both must stay byte-
deterministic per seed (CI diffs two runs of the JSON artifact).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.api.config import ReproConfig
from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.cluster.runtime import CHUNK_KEYS, ClusterRuntime
from repro.cluster.scheduler import (
    CompressionAwareScheduler,
    LogicalOnlyScheduler,
    band_coverage,
)
from repro.common.units import DB_PAGE_SIZE, MiB

#: A short token tiled across the whole page: compresses very well.
_COMPRESSIBLE_TOKEN = b"polarstore-dual-layer-compression:"
#: Row header overhead of :func:`repro.cluster.runtime.encode_row_page`.
_ROW_OVERHEAD = 12


def _row_value(rng: random.Random, compressible: bool) -> bytes:
    """One row's bytes.

    Incompressible rows fill the whole page with fresh random bytes (the
    page encoder tiles short values, which would make *any* short value
    compressible at page level)."""
    if compressible:
        return _COMPRESSIBLE_TOKEN
    return rng.getrandbits((DB_PAGE_SIZE - _ROW_OVERHEAD) * 8).to_bytes(
        DB_PAGE_SIZE - _ROW_OVERHEAD, "little"
    )


def scenario_config(shards: int = 4, seed: int = 0) -> ReproConfig:
    return ReproConfig.from_dict({
        "store": {"volume_bytes": 16 * MiB, "seed": seed},
        "engine": {"enabled": True},
        "cluster": {"shards": shards},
    })


def build_skewed_runtime(
    shards: int = 4, chunks: int = 16, seed: int = 0
) -> Tuple[ClusterRuntime, Dict[Tuple[str, int], bytes]]:
    """Ingest the correlated-tenant layout; returns (runtime, expected).

    Chunk ``i`` is compressible iff ``i % shards < shards // 2``: the
    runtime's least-logically-loaded placement assigns chunks round-robin
    in shard order, so the compressible half of the stream stacks onto
    the first half of the fleet.
    """
    runtime = ClusterRuntime(scenario_config(shards=shards, seed=seed))
    rng = random.Random(seed + 1)
    runtime.create_table("tenants")
    expected: Dict[Tuple[str, int], bytes] = {}
    for chunk_index in range(chunks):
        compressible = chunk_index % shards < shards // 2
        for j in range(CHUNK_KEYS):
            key = chunk_index * CHUNK_KEYS + j
            value = _row_value(rng, compressible)
            runtime.insert(runtime.engine.now_us, "tenants", key, value)
            expected[("tenants", key)] = value
    return runtime, expected


#: The two fleets the scenario compares, in artifact (and leg) order.
SCHEDULER_LEGS = ("logical_only", "compression_aware")


def run_scheduler_leg(
    name: str,
    shards: int = 4,
    chunks: int = 16,
    seed: int = 0,
) -> Dict:
    """One complete fleet: ingest, rebalance with ``name``'s scheduler,
    verify, measure.  Returns the leg's artifact contribution as plain
    data, so legs compose identically whether they run in-process or as
    programs fanned across worker processes (the two fleets share no
    simulated state — they are independent engine universes).
    """
    scheduler = (
        LogicalOnlyScheduler() if name == "logical_only"
        else CompressionAwareScheduler()
    )
    runtime, expected = build_skewed_runtime(
        shards=shards, chunks=chunks, seed=seed
    )
    before = runtime.wasted_fractions()
    occupancies = {f"{name}/before": runtime.zone_occupancy()}
    report = runtime.rebalance(scheduler)
    runtime.verify_readable(expected)
    after = runtime.wasted_fractions()
    occupancies[f"{name}/after"] = runtime.zone_occupancy()
    abstract, _ = runtime.snapshot()
    aware = CompressionAwareScheduler()
    coverage = band_coverage(abstract, *aware.band(abstract))
    return {
        "name": name,
        "before": before,
        "occupancies": occupancies,
        "row": (
            name,
            len(report.tasks),
            report.moved_pages,
            report.catchup_pages,
            round(report.moved_logical_bytes / MiB, 3),
            round(report.moved_physical_bytes / MiB, 3),
            round(report.makespan_us / 1000.0, 3),
            round(after[0], 4),
            round(after[1], 4),
            round(coverage, 4),
        ),
    }


def run_fig10_11(
    out_dir: Optional[str] = None,
    shards: int = 4,
    chunks: int = 16,
    seed: int = 0,
    quiet: bool = False,
    workers: int = 1,
) -> ExperimentResult:
    """Run both schedulers over the skewed fleet; persist the artifact.

    The two fleets are independent engine universes, so ``workers``
    fans them across worker processes
    (:meth:`~repro.engine.parallel.ParallelEngineGroup.run_programs`);
    the artifact is byte-identical at any worker count.
    """
    result = ExperimentResult(
        experiment="fig10_11_scheduling",
        description="wasted space and live-migration traffic: "
                    "logical-only vs compression-aware scheduling",
        columns=(
            "scheduler", "tasks", "moved_pages", "catchup_pages",
            "moved_logical_mib", "moved_physical_mib", "makespan_ms",
            "wasted_logical", "wasted_physical", "band_coverage",
        ),
    )
    from repro.engine.parallel import ParallelEngineGroup

    legs = ParallelEngineGroup.run_programs(
        [
            lambda name=name: run_scheduler_leg(
                name, shards=shards, chunks=chunks, seed=seed
            )
            for name in SCHEDULER_LEGS
        ],
        workers=workers,
    )
    occupancies: Dict[str, Dict[str, int]] = {}
    for leg in legs:
        if leg["name"] == "logical_only":
            before = leg["before"]
            result.note(
                f"ingest leaves wasted_logical={before[0]:.3f} "
                f"wasted_physical={before[1]:.3f} (both fleets identical)"
            )
        result.add(*leg["row"])
        occupancies.update(leg["occupancies"])
    for label, zones in sorted(occupancies.items()):
        result.note(
            f"zones {label}: " + " ".join(
                f"{z}={zones[z]}" for z in ("A", "B", "C", "D")
            )
        )
    if not quiet:
        print_table(result)
    if out_dir is not None:
        save_result(result, out_dir)
    else:
        save_result(result)
    return result
