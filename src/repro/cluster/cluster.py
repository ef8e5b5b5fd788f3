"""The cluster: a fleet of servers plus placement and synthesis helpers."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import SchedulingError
from repro.common.units import GiB
from repro.cluster.chunk import Chunk, StorageServer


@dataclass
class Cluster:
    servers: List[StorageServer] = field(default_factory=list)
    #: Placement block threshold from §4.2.1.
    usage_limit: float = 0.75

    # -- aggregate statistics ------------------------------------------------

    @property
    def average_logical_utilization(self) -> float:
        if not self.servers:
            return 0.0
        return sum(s.logical_utilization for s in self.servers) / len(self.servers)

    @property
    def average_compression_ratio(self) -> float:
        logical = sum(s.logical_used for s in self.servers)
        physical = sum(s.physical_used for s in self.servers)
        if physical == 0:
            return 1.0
        return logical / physical

    def find_chunk(self, chunk_id: int) -> Optional[StorageServer]:
        for server in self.servers:
            if chunk_id in server.chunks:
                return server
        return None

    # -- placement (the original strategy of §4.2.1) ------------------------------

    def place_new_chunk(self, chunk: Chunk) -> StorageServer:
        """Allocate to the alive server with the lowest logical usage."""
        candidates = [
            s for s in self.servers if s.fits(chunk, self.usage_limit)
        ]
        if not candidates:
            raise SchedulingError(
                "all servers above the usage limit: add storage servers"
            )
        target = min(candidates, key=lambda s: s.logical_utilization)
        target.add_chunk(chunk)
        return target

    def place_new_chunk_ratio_aware(self, chunk: Chunk) -> StorageServer:
        """Placement extension: steer each new chunk toward the server
        whose compression ratio it best complements.

        Poorly-compressing chunks go to servers with above-average ratios
        (physical headroom) and vice versa, so imbalance is *prevented*
        rather than migrated away later — reducing the scheduler's work.
        """
        candidates = [
            s for s in self.servers if s.fits(chunk, self.usage_limit)
        ]
        if not candidates:
            raise SchedulingError(
                "all servers above the usage limit: add storage servers"
            )
        c_avg = self.average_compression_ratio

        def complement_score(server: StorageServer) -> "tuple[float, float]":
            # Prefer servers whose deviation from c_avg is *opposite* the
            # chunk's; break ties by logical usage.
            server_dev = server.compression_ratio - c_avg
            chunk_dev = chunk.compression_ratio - c_avg
            return (server_dev * chunk_dev, server.logical_utilization)

        target = min(candidates, key=complement_score)
        target.add_chunk(chunk)
        return target

    # -- waste metrics (Figure 9a analysis) ------------------------------------------

    def wasted_logical_fraction(self) -> float:
        """Logical space stranded on servers that hit their *physical*
        limit first (below-average-ratio servers)."""
        wasted = 0
        total = 0
        for server in self.servers:
            total += server.logical_capacity
            # When physical fills at the limit, the logical space that can
            # never be used is (limit - logical_at_physical_limit).
            ratio = server.compression_ratio
            logical_at_phys_limit = min(
                self.usage_limit,
                self.usage_limit
                * ratio
                * server.physical_capacity
                / server.logical_capacity,
            )
            wasted += int(
                max(0.0, self.usage_limit - logical_at_phys_limit)
                * server.logical_capacity
            )
        return wasted / total if total else 0.0

    def wasted_physical_fraction(self) -> float:
        """Physical space stranded on servers that hit their *logical*
        limit first (above-average-ratio servers)."""
        wasted = 0
        total = 0
        for server in self.servers:
            total += server.physical_capacity
            ratio = server.compression_ratio
            phys_at_logical_limit = min(
                self.usage_limit,
                self.usage_limit
                / ratio
                * server.logical_capacity
                / server.physical_capacity,
            )
            wasted += int(
                max(0.0, self.usage_limit - phys_at_logical_limit)
                * server.physical_capacity
            )
        return wasted / total if total else 0.0


#: A synthesized server: its capacities, the 10 GiB chunks it has room
#: for, the share of those it holds, and the lognormal sigma of its
#: users' mean compression ratios.
SERVER_LOGICAL_CAPACITY = 1024 * GiB
SERVER_PHYSICAL_CAPACITY = 384 * GiB
CHUNK_LOGICAL_GIB = 10.0
CHUNKS_PER_SERVER = 48
FILL = 0.62
RATIO_SIGMA = 0.35


def synthesize_cluster(
    n_servers: int = 60,
    mean_ratio: float = 3.55,
    seed: int = 0,
) -> Cluster:
    """A cluster whose per-chunk compression ratios follow a lognormal
    spread around ``mean_ratio`` — matching the dispersion of Figure 9a —
    placed with the logical-only strategy (so the imbalance of Figures
    10a/11a emerges naturally).
    """
    rng = random.Random(seed)
    cluster = Cluster(
        servers=[
            StorageServer(i, SERVER_LOGICAL_CAPACITY, SERVER_PHYSICAL_CAPACITY)
            for i in range(n_servers)
        ]
    )
    chunk_id = 0
    target_chunks = int(n_servers * CHUNKS_PER_SERVER * FILL)
    placed = 0
    while placed < target_chunks:
        # One user arrives with a batch of similarly-compressing chunks
        # (the same tables sharded into chunks).  Chunks of one user are
        # placed with affinity — subsequent chunks prefer servers already
        # holding that user's data — which is what concentrates ratios on
        # servers and produces Figure 9a's dispersion.
        user_mean = mean_ratio * rng.lognormvariate(0.0, RATIO_SIGMA)
        batch = min(rng.randrange(4, 25), target_chunks - placed)
        user_servers: list = []
        for _ in range(batch):
            ratio = max(1.05, user_mean * rng.lognormvariate(0.0, 0.08))
            chunk = Chunk(chunk_id, int(CHUNK_LOGICAL_GIB * GiB), ratio)
            chunk_id += 1
            target = None
            if user_servers and rng.random() < 0.8:
                affine = [
                    s
                    for s in user_servers
                    if s.fits(chunk, cluster.usage_limit)
                ]
                if affine:
                    target = min(affine, key=lambda s: s.logical_utilization)
                    target.add_chunk(chunk)
            if target is None:
                target = cluster.place_new_chunk(chunk)
            if target not in user_servers:
                user_servers.append(target)
            placed += 1
    return cluster
