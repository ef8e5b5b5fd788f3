"""NAND flash space: erase blocks with byte-granular append.

The FTL appends variable-length compressed payloads into erase blocks.
Space is tracked exactly: every stored payload consumes ``stored_length``
bytes of some block; overwrites leave stale bytes behind that only erase
reclaims — the mechanism the dual-layer design leans on for byte-level
indexing "for free".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import DeviceError
from repro.common.units import MiB


@dataclass
class NandBlock:
    """One erase block."""

    block_id: int
    capacity: int
    write_ptr: int = 0
    live_bytes: int = 0
    sealed: bool = False

    @property
    def stale_bytes(self) -> int:
        return self.write_ptr - self.live_bytes

    def free_bytes(self) -> int:
        return self.capacity - self.write_ptr

    def append(self, length: int) -> int:
        """Reserve ``length`` bytes; return their start offset."""
        if self.sealed:
            raise DeviceError(f"append to sealed block {self.block_id}")
        if length > self.free_bytes():
            raise DeviceError(f"block {self.block_id} overflow")
        offset = self.write_ptr
        self.write_ptr += length
        self.live_bytes += length
        return offset

    def invalidate(self, length: int) -> None:
        """Mark ``length`` previously-live bytes stale."""
        if length > self.live_bytes:
            raise DeviceError(
                f"block {self.block_id}: invalidating {length} > live "
                f"{self.live_bytes}"
            )
        self.live_bytes -= length

    def erase(self) -> None:
        if self.live_bytes:
            raise DeviceError(
                f"erasing block {self.block_id} with {self.live_bytes} live bytes"
            )
        self.write_ptr = 0
        self.sealed = False


@dataclass
class NandSpace:
    """All erase blocks of one device."""

    physical_capacity: int
    block_capacity: int = 4 * MiB
    blocks: List[NandBlock] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.physical_capacity < self.block_capacity:
            raise ValueError("physical capacity smaller than one erase block")
        count = self.physical_capacity // self.block_capacity
        self.blocks = [NandBlock(i, self.block_capacity) for i in range(count)]

    def free_blocks(self) -> List[NandBlock]:
        return [b for b in self.blocks if not b.sealed and b.write_ptr == 0]

    def victim_candidates(self) -> List[NandBlock]:
        """Sealed blocks, most-stale first (greedy GC policy)."""
        sealed = [b for b in self.blocks if b.sealed]
        return sorted(sealed, key=lambda b: b.live_bytes)

    @property
    def live_bytes(self) -> int:
        return sum(b.live_bytes for b in self.blocks)

    def find(self, block_id: int) -> Optional[NandBlock]:
        if 0 <= block_id < len(self.blocks):
            return self.blocks[block_id]
        return None
