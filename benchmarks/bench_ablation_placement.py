"""Placement-policy ablation: preventing imbalance vs repairing it.

The paper's clusters place new chunks by logical usage alone and repair
the resulting compression-ratio imbalance with the zone scheduler
(§4.2.2).  An obvious extension is to *prevent* the imbalance at
placement time; this bench quantifies how much migration work that saves.
"""

import random

from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import GiB
from repro.cluster.chunk import Chunk, StorageServer
from repro.cluster.cluster import Cluster
from benchmarks.ablation.migration import MigrationExecutor
from repro.cluster.scheduler import CompressionAwareScheduler, band_coverage

N_SERVERS = 30
N_CHUNKS = 500


def _build(placer_name, seed=5):
    """Users arrive in ratio-correlated batches placed with affinity —
    the mechanism behind Figure 9a's dispersion.  The placement policy
    decides where a user's *first* chunk (and the 20% non-affine spill)
    lands; that anchor choice is where ratio-awareness can help."""
    cluster = Cluster(
        [StorageServer(i, 1024 * GiB, 384 * GiB) for i in range(N_SERVERS)]
    )
    rng = random.Random(seed)
    chunk_id = 0
    while chunk_id < N_CHUNKS:
        user_mean = 3.5 * rng.lognormvariate(0.0, 0.35)
        batch = min(rng.randrange(4, 25), N_CHUNKS - chunk_id)
        user_servers = []
        for _ in range(batch):
            ratio = max(1.05, user_mean * rng.lognormvariate(0.0, 0.08))
            chunk = Chunk(chunk_id, 10 * GiB, ratio)
            chunk_id += 1
            target = None
            if user_servers and rng.random() < 0.8:
                affine = [
                    s for s in user_servers
                    if s.fits(chunk, cluster.usage_limit)
                ]
                if affine:
                    target = min(affine, key=lambda s: s.logical_utilization)
                    target.add_chunk(chunk)
            if target is None:
                target = getattr(cluster, placer_name)(chunk)
            if target not in user_servers:
                user_servers.append(target)
    return cluster


def run_placement_ablation():
    result = ExperimentResult(
        "ablation_placement",
        "logical-only vs ratio-aware placement: migrations needed after",
        ["policy", "coverage_before", "migration_tasks", "makespan_h"],
    )
    rows = {}
    for label, placer in (
        ("logical-only placement", "place_new_chunk"),
        ("ratio-aware placement", "place_new_chunk_ratio_aware"),
    ):
        cluster = _build(placer)
        scheduler = CompressionAwareScheduler(band_width=0.10)
        c_l, c_h = scheduler.band(cluster)
        before = band_coverage(cluster, c_l, c_h)
        tasks = scheduler.rebalance(cluster)
        report = MigrationExecutor().report_for_plan(cluster, tasks)
        rows[label] = (before, len(tasks), report.makespan_hours)
        result.add(label, before, len(tasks), report.makespan_hours)
    result.note(
        "steering new chunks toward ratio-complementary servers leaves "
        "the zone scheduler less repair work"
    )
    print_table(result)
    save_result(result)
    return rows


def test_placement_ablation(run_once):
    rows = run_once(run_placement_ablation)
    naive = rows["logical-only placement"]
    aware = rows["ratio-aware placement"]
    # Ratio-aware placement starts better-balanced and needs fewer moves.
    assert aware[0] >= naive[0]
    assert aware[1] <= naive[1]
