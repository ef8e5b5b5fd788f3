"""Chunks and storage servers for cluster-scale simulation.

At cluster scale the paper reasons about chunks as (logical size,
compression ratio) pairs and servers as capacity buckets; this module
keeps exactly that state, with invariant-checked add/remove so schedulers
cannot teleport bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.errors import SchedulingError
from repro.common.units import GiB


@dataclass(frozen=True)
class Chunk:
    """One placement unit (a slice of a user volume)."""

    chunk_id: int
    logical_bytes: int
    compression_ratio: float

    def __post_init__(self) -> None:
        if self.logical_bytes <= 0:
            raise ValueError("chunk must have positive logical size")
        if self.compression_ratio < 1.0:
            raise ValueError("compression ratio below 1.0")

    @property
    def physical_bytes(self) -> int:
        return int(self.logical_bytes / self.compression_ratio)


@dataclass
class StorageServer:
    """One storage server with logical and physical capacity."""

    server_id: int
    logical_capacity: int = 8 * 1024 * GiB
    physical_capacity: int = 4 * 1024 * GiB
    chunks: Dict[int, Chunk] = field(default_factory=dict)

    # -- usage -----------------------------------------------------------

    @property
    def logical_used(self) -> int:
        return sum(c.logical_bytes for c in self.chunks.values())

    @property
    def physical_used(self) -> int:
        return sum(c.physical_bytes for c in self.chunks.values())

    @property
    def logical_utilization(self) -> float:
        return self.logical_used / self.logical_capacity

    @property
    def compression_ratio(self) -> float:
        physical = self.physical_used
        if physical == 0:
            return 1.0
        return self.logical_used / physical

    # -- chunk movement -------------------------------------------------------

    def add_chunk(self, chunk: Chunk) -> None:
        if chunk.chunk_id in self.chunks:
            raise SchedulingError(
                f"chunk {chunk.chunk_id} already on server {self.server_id}"
            )
        self.chunks[chunk.chunk_id] = chunk

    def remove_chunk(self, chunk_id: int) -> Chunk:
        if chunk_id not in self.chunks:
            raise SchedulingError(
                f"chunk {chunk_id} not on server {self.server_id}"
            )
        return self.chunks.pop(chunk_id)

    def fits(self, chunk: Chunk, limit: float = 0.75) -> bool:
        """Placement rule from §4.2.1: both logical and physical usage must
        stay under ``limit`` after adding the chunk."""
        logical = (self.logical_used + chunk.logical_bytes) / self.logical_capacity
        physical = (
            self.physical_used + chunk.physical_bytes
        ) / self.physical_capacity
        return logical <= limit and physical <= limit

    def chunks_by_ratio(self, ascending: bool = True) -> List[Chunk]:
        return sorted(
            self.chunks.values(),
            key=lambda c: c.compression_ratio,
            reverse=not ascending,
        )
