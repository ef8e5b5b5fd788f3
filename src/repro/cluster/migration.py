"""Migration execution model (§4.2.3).

The zone scheduler emits migration tasks; executing one moves a chunk's
physical bytes across the network, throttled so user traffic is not
disturbed.  The paper tunes [c_l, c_h] per cluster "targeting the
parameters completion within one day" — this module computes that
completion time (makespan) so the trade-off between band width, task
count, and wall-clock duration can be evaluated offline, exactly as the
paper describes doing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.units import GiB, MiB
from repro.cluster.cluster import Cluster
from repro.cluster.scheduler import MigrationTask
from repro.engine import ResourcePool
from repro.obs.metrics import MetricsRegistry


#: A throttled background mover: ~80 MiB/s per stream (a fraction of a
#: 25 Gbps NIC), 8 streams per cluster, and per-task overhead for
#: snapshotting + handoff.
PER_STREAM_MIB_S = 80.0
CONCURRENT_STREAMS = 8
PER_TASK_OVERHEAD_S = 20.0


@dataclass(frozen=True)
class MigrationPlanReport:
    tasks: int
    moved_bytes: int
    makespan_s: float

    @property
    def makespan_hours(self) -> float:
        return self.makespan_s / 3600.0


class MigrationExecutor:
    """Executes a migration plan under bandwidth and concurrency limits."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self._tasks_ctr = self.metrics.counter("cluster.migration.tasks")
        self._moved_ctr = self.metrics.counter("cluster.migration.moved_bytes")
        self._makespan = self.metrics.gauge("cluster.migration.makespan_s")

    def estimate(
        self, cluster_chunks_bytes: Sequence[int]
    ) -> MigrationPlanReport:
        """Makespan for moving chunks of the given physical sizes."""
        pool = ResourcePool("migration", CONCURRENT_STREAMS)
        makespan_us = 0.0
        moved = 0
        # Longest-processing-time-first assignment approximates the
        # scheduler's behaviour of draining big chunks early.
        for nbytes in sorted(cluster_chunks_bytes, reverse=True):
            duration_s = (
                nbytes / (PER_STREAM_MIB_S * MiB) + PER_TASK_OVERHEAD_S
            )
            done = pool.serve(0.0, duration_s * 1e6)
            makespan_us = max(makespan_us, done)
            moved += nbytes
        self._tasks_ctr.add(len(cluster_chunks_bytes))
        self._moved_ctr.add(moved)
        self._makespan.set(makespan_us / 1e6)
        return MigrationPlanReport(
            len(cluster_chunks_bytes), moved, makespan_us / 1e6
        )

    def report_for_plan(
        self, cluster: Cluster, tasks: List[MigrationTask]
    ) -> MigrationPlanReport:
        """Makespan of an already-applied plan (chunk ids -> sizes)."""
        sizes = []
        for task in tasks:
            server = cluster.find_chunk(task.chunk_id)
            if server is not None:
                sizes.append(server.chunks[task.chunk_id].physical_bytes)
            else:  # pragma: no cover - chunks never vanish mid-plan
                sizes.append(int(10 * GiB / 3))
        return self.estimate(sizes)
