"""Chunk schedulers (§4.2).

:class:`LogicalOnlyScheduler`
    The original strategy: watch logical usage only — migrate chunks off
    servers more than 10% above the average logical usage onto the
    least-loaded servers.  Ignores compression ratios entirely, which is
    what strands space (Figure 10a/11a).

:class:`CompressionAwareScheduler`
    The fix (Figure 9b): view servers on the logical×physical plane,
    target a compression-ratio band [c_l, c_h] around the cluster
    average, and move the most extreme chunks between the A/D zones until
    every server's ratio falls inside the band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.chunk import StorageServer
from repro.cluster.cluster import Cluster


#: Logical-only migrates off servers this far above the average usage.
IMBALANCE_MARGIN = 0.10
#: Bound on the tasks one plan may hold.
MAX_TASKS = 10_000


@dataclass(frozen=True)
class MigrationTask:
    chunk_id: int
    source_id: int
    target_id: int


class LogicalOnlyScheduler:
    """Balance logical usage; blind to compression ratios."""

    def rebalance(self, cluster: Cluster) -> List[MigrationTask]:
        tasks: List[MigrationTask] = []
        while len(tasks) < MAX_TASKS:
            average = cluster.average_logical_utilization
            overloaded = [
                s
                for s in cluster.servers
                if s.logical_utilization > average + IMBALANCE_MARGIN
                and s.chunks
            ]
            if not overloaded:
                break
            source = max(cluster.servers, key=lambda s: s.logical_utilization)
            chunk = next(iter(source.chunks.values()))
            candidates = [
                s
                for s in cluster.servers
                if s is not source and s.fits(chunk, cluster.usage_limit)
            ]
            if not candidates:
                break
            target = min(candidates, key=lambda s: s.logical_utilization)
            source.remove_chunk(chunk.chunk_id)
            target.add_chunk(chunk)
            tasks.append(MigrationTask(chunk.chunk_id, source.server_id,
                                       target.server_id))
        return tasks


class CompressionAwareScheduler:
    """Zone-based scheduling on the logical×physical plane (Figure 9b)."""

    def __init__(self, band_width: float = 0.10) -> None:
        """``band_width``: half-width of [c_l, c_h] relative to c_avg.
        Narrower bands converge tighter but need more migration tasks —
        the trade-off §4.2.3 tunes offline per cluster."""
        self.band_width = band_width

    def band(self, cluster: Cluster) -> "tuple[float, float]":
        c_avg = cluster.average_compression_ratio
        return c_avg * (1 - self.band_width), c_avg * (1 + self.band_width)

    @staticmethod
    def zone(server: StorageServer, c_l: float, c_h: float, c_avg: float) -> str:
        ratio = server.compression_ratio
        if ratio < c_l:
            return "A"  # high physical, low logical: poorly compressing
        if ratio > c_h:
            return "D"  # low physical, high logical: compresses very well
        return "B" if ratio <= c_avg else "C"

    def rebalance(self, cluster: Cluster) -> List[MigrationTask]:
        tasks: List[MigrationTask] = []
        c_avg = cluster.average_compression_ratio
        c_l, c_h = self.band(cluster)
        progress = True
        while progress and len(tasks) < MAX_TASKS:
            progress = False
            zones = {
                server.server_id: self.zone(server, c_l, c_h, c_avg)
                for server in cluster.servers
            }
            for server in cluster.servers:
                if len(tasks) >= MAX_TASKS:
                    break
                zone = zones[server.server_id]
                if zone == "A":
                    # Shed the worst-compressing chunk toward D, C, then B.
                    task = self._move(
                        cluster, server, ascending=True,
                        preference=("D", "C", "B"), zones=zones,
                    )
                elif zone == "D":
                    # Shed the best-compressing chunk toward A, B, then C.
                    task = self._move(
                        cluster, server, ascending=False,
                        preference=("A", "B", "C"), zones=zones,
                    )
                else:
                    task = None
                if task is not None:
                    tasks.append(task)
                    progress = True
        return tasks

    @staticmethod
    def _move(
        cluster: Cluster,
        source: StorageServer,
        ascending: bool,
        preference: Sequence[str],
        zones: dict,
    ) -> Optional[MigrationTask]:
        chunks = source.chunks_by_ratio(ascending=ascending)
        if not chunks:
            return None
        chunk = chunks[0]
        for wanted_zone in preference:
            candidates = [
                s
                for s in cluster.servers
                if s is not source
                and zones[s.server_id] == wanted_zone
                and s.fits(chunk, cluster.usage_limit)
            ]
            if candidates:
                target = min(candidates, key=lambda s: s.logical_utilization)
                source.remove_chunk(chunk.chunk_id)
                target.add_chunk(chunk)
                return MigrationTask(
                    chunk.chunk_id, source.server_id, target.server_id
                )
        return None


def band_coverage(cluster: Cluster, c_l: float, c_h: float) -> float:
    """Fraction of servers whose compression ratio lies in [c_l, c_h]
    (the §4.2.3 convergence metric: >90% for C1, 87.7% for C2)."""
    if not cluster.servers:
        return 0.0
    inside = sum(
        1 for s in cluster.servers if c_l <= s.compression_ratio <= c_h
    )
    return inside / len(cluster.servers)
