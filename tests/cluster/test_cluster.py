"""Cluster space management and compression-aware scheduling."""

import pytest

from repro.common.errors import SchedulingError
from repro.common.units import GiB, MiB
from repro.cluster.chunk import Chunk, StorageServer
from repro.cluster.cluster import Cluster, synthesize_cluster
from repro.cluster.costs import (
    DEVICE_COSTS,
    cost_per_logical_gb,
    storage_cost_reduction,
)
from repro.cluster.scheduler import (
    IMBALANCE_MARGIN,
    CompressionAwareScheduler,
    LogicalOnlyScheduler,
    band_coverage,
)

# --------------------------------------------------------------------- #
# Chunks & servers                                                       #
# --------------------------------------------------------------------- #


def test_chunk_physical_size():
    chunk = Chunk(1, 10 * GiB, 2.5)
    assert chunk.physical_bytes == int(10 * GiB / 2.5)
    with pytest.raises(ValueError):
        Chunk(2, 0, 2.0)
    with pytest.raises(ValueError):
        Chunk(3, GiB, 0.5)


def test_server_usage_accounting():
    server = StorageServer(0, logical_capacity=100 * GiB,
                           physical_capacity=50 * GiB)
    server.add_chunk(Chunk(1, 10 * GiB, 2.0))
    server.add_chunk(Chunk(2, 10 * GiB, 4.0))
    assert server.logical_used == 20 * GiB
    assert server.physical_used == int(10 * GiB / 2.0) + int(10 * GiB / 4.0)
    assert server.compression_ratio == pytest.approx(20 / 7.5, rel=1e-3)
    with pytest.raises(SchedulingError):
        server.add_chunk(Chunk(1, GiB, 2.0))
    server.remove_chunk(1)
    with pytest.raises(SchedulingError):
        server.remove_chunk(1)


def test_server_fits_checks_both_dimensions():
    server = StorageServer(0, logical_capacity=100 * GiB,
                           physical_capacity=10 * GiB)
    # Logical fits easily but physical would exceed 75%.
    incompressible = Chunk(1, 9 * GiB, 1.05)
    assert not server.fits(incompressible)
    compressible = Chunk(2, 9 * GiB, 3.0)
    assert server.fits(compressible)


# --------------------------------------------------------------------- #
# Cluster placement                                                      #
# --------------------------------------------------------------------- #


def test_placement_prefers_lowest_logical_usage():
    cluster = Cluster([StorageServer(i, 100 * GiB, 50 * GiB) for i in range(3)])
    cluster.servers[0].add_chunk(Chunk(100, 30 * GiB, 2.0))
    target = cluster.place_new_chunk(Chunk(1, 10 * GiB, 2.0))
    assert target.server_id in (1, 2)


def test_placement_fails_when_cluster_full():
    cluster = Cluster([StorageServer(0, 10 * GiB, 5 * GiB)])
    cluster.servers[0].add_chunk(Chunk(1, int(7.2 * GiB), 2.0))
    with pytest.raises(SchedulingError):
        cluster.place_new_chunk(Chunk(2, 2 * GiB, 2.0))


def test_synthesized_cluster_has_ratio_dispersion():
    cluster = synthesize_cluster(n_servers=40, seed=3)
    ratios = [s.compression_ratio for s in cluster.servers if s.chunks]
    assert len(ratios) == 40
    spread = max(ratios) / min(ratios)
    assert spread > 1.3  # Figure 9a: meaningful imbalance before scheduling
    c_avg = cluster.average_compression_ratio
    assert 2.0 < c_avg < 6.0


# --------------------------------------------------------------------- #
# Schedulers                                                             #
# --------------------------------------------------------------------- #


def test_logical_scheduler_balances_logical_usage_only():
    cluster = synthesize_cluster(n_servers=30, seed=5)
    # Unbalance it: dump extra chunks on server 0.
    for i in range(12):
        cluster.servers[0].add_chunk(Chunk(90_000 + i, 10 * GiB, 3.0))
    scheduler = LogicalOnlyScheduler()
    tasks = scheduler.rebalance(cluster)
    assert tasks
    average = cluster.average_logical_utilization
    assert all(
        s.logical_utilization <= average + IMBALANCE_MARGIN + 0.02
        for s in cluster.servers
    )


def test_compression_aware_scheduler_converges_ratios():
    """Figures 10b/11b: after scheduling, ~90% of servers sit inside the
    target compression-ratio band."""
    cluster = synthesize_cluster(n_servers=40, seed=3)
    scheduler = CompressionAwareScheduler(band_width=0.10)
    c_l, c_h = scheduler.band(cluster)
    before = band_coverage(cluster, c_l, c_h)
    tasks = scheduler.rebalance(cluster)
    after = band_coverage(cluster, c_l, c_h)
    assert tasks
    assert after > before
    assert after >= 0.85


def test_compression_aware_scheduler_preserves_all_chunks():
    cluster = synthesize_cluster(n_servers=20, seed=9)
    total_before = sum(len(s.chunks) for s in cluster.servers)
    logical_before = sum(s.logical_used for s in cluster.servers)
    CompressionAwareScheduler().rebalance(cluster)
    assert sum(len(s.chunks) for s in cluster.servers) == total_before
    assert sum(s.logical_used for s in cluster.servers) == logical_before


def test_wider_band_needs_fewer_tasks():
    """§4.2.3: lower c_l / higher c_h => fewer scheduling tasks."""
    narrow_cluster = synthesize_cluster(n_servers=30, seed=11)
    wide_cluster = synthesize_cluster(n_servers=30, seed=11)
    narrow = CompressionAwareScheduler(band_width=0.06).rebalance(narrow_cluster)
    wide = CompressionAwareScheduler(band_width=0.20).rebalance(wide_cluster)
    assert len(wide) <= len(narrow)


def test_scheduling_reduces_stranded_space():
    cluster = synthesize_cluster(n_servers=40, seed=3)
    wasted_before = (
        cluster.wasted_logical_fraction() + cluster.wasted_physical_fraction()
    )
    CompressionAwareScheduler().rebalance(cluster)
    wasted_after = (
        cluster.wasted_logical_fraction() + cluster.wasted_physical_fraction()
    )
    assert wasted_after < wasted_before


def test_find_chunk():
    cluster = synthesize_cluster(n_servers=5, seed=2)
    some_server = next(s for s in cluster.servers if s.chunks)
    chunk_id = next(iter(some_server.chunks))
    assert cluster.find_chunk(chunk_id) is some_server
    assert cluster.find_chunk(10**9) is None


def test_ratio_aware_placement_reduces_imbalance():
    """The placement extension steers chunks so servers end up closer to
    the cluster-average ratio than naive logical-only placement — fewer
    migrations needed later."""
    import random as _random

    def build(placer_name):
        cluster = Cluster(
            [StorageServer(i, 1024 * GiB, 384 * GiB) for i in range(20)]
        )
        rng = _random.Random(3)
        chunk_id = 0
        for _ in range(300):
            ratio = max(1.05, 3.5 * rng.lognormvariate(0.0, 0.4))
            chunk = Chunk(chunk_id, 10 * GiB, ratio)
            chunk_id += 1
            getattr(cluster, placer_name)(chunk)
        return cluster

    def spread(cluster):
        ratios = [s.compression_ratio for s in cluster.servers if s.chunks]
        return max(ratios) - min(ratios)

    naive = build("place_new_chunk")
    aware = build("place_new_chunk_ratio_aware")
    assert spread(aware) <= spread(naive)


def test_ratio_aware_placement_respects_limits():
    cluster = Cluster([StorageServer(0, 10 * GiB, 5 * GiB)])
    cluster.servers[0].add_chunk(Chunk(1, int(7.2 * GiB), 2.0))
    with pytest.raises(SchedulingError):
        cluster.place_new_chunk_ratio_aware(Chunk(2, 2 * GiB, 2.0))


# --------------------------------------------------------------------- #
# Migration execution (§4.2.3 "completion within one day")               #
# --------------------------------------------------------------------- #


def test_migration_makespan_scales_with_bytes():
    from benchmarks.ablation.migration import MigrationExecutor

    executor = MigrationExecutor()
    small = executor.estimate([GiB] * 8)
    large = executor.estimate([10 * GiB] * 8)
    assert large.makespan_s > small.makespan_s
    assert large.moved_bytes == 80 * GiB


def test_migration_concurrency_shortens_makespan():
    from benchmarks.ablation.migration import (
        CONCURRENT_STREAMS, PER_STREAM_MIB_S, PER_TASK_OVERHEAD_S,
        MigrationExecutor,
    )

    task_s = GiB / (PER_STREAM_MIB_S * MiB) + PER_TASK_OVERHEAD_S
    parallel = MigrationExecutor().estimate([GiB] * 16)
    waves = -(-16 // CONCURRENT_STREAMS)
    assert parallel.makespan_s == pytest.approx(waves * task_s)
    assert parallel.makespan_s < 16 * task_s / 3


def test_zone_plan_completes_within_a_day():
    """§4.2.3: band parameters are chosen offline so the resulting plan
    finishes within one day — verify our default band on a synthesized
    cluster does."""
    from benchmarks.ablation.migration import MigrationExecutor

    cluster = synthesize_cluster(n_servers=40, seed=3)
    scheduler = CompressionAwareScheduler(band_width=0.10)
    # Capture chunk sizes before applying (the plan mutates placement).
    tasks = scheduler.rebalance(cluster)
    report = MigrationExecutor().report_for_plan(cluster, tasks)
    assert report.tasks == len(tasks)
    assert report.makespan_hours < 24.0


def test_wider_band_completes_faster():
    from benchmarks.ablation.migration import MigrationExecutor

    executor = MigrationExecutor()
    narrow_cluster = synthesize_cluster(n_servers=30, seed=11)
    wide_cluster = synthesize_cluster(n_servers=30, seed=11)
    narrow_tasks = CompressionAwareScheduler(0.06).rebalance(narrow_cluster)
    wide_tasks = CompressionAwareScheduler(0.20).rebalance(wide_cluster)
    narrow = executor.report_for_plan(narrow_cluster, narrow_tasks)
    wide = executor.report_for_plan(wide_cluster, wide_tasks)
    assert wide.makespan_s <= narrow.makespan_s


# --------------------------------------------------------------------- #
# Costs (Table 2)                                                        #
# --------------------------------------------------------------------- #


def test_cost_model_reproduces_table2():
    assert cost_per_logical_gb("P4510", 1.0) == 1.00
    assert cost_per_logical_gb("P5510", 1.0) == 0.91
    assert cost_per_logical_gb("PolarCSD1.0", 2.35) == pytest.approx(0.62, abs=0.01)
    assert cost_per_logical_gb("PolarCSD2.0", 3.55) == pytest.approx(0.37, abs=0.01)


def test_cost_reduction_is_about_sixty_percent():
    saving = storage_cost_reduction("P5510", "PolarCSD2.0", 3.55)
    assert saving == pytest.approx(0.59, abs=0.03)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        DEVICE_COSTS["P4510"].logical_cost(0.0)
    with pytest.raises(KeyError):
        cost_per_logical_gb("QLC9000", 1.0)
