"""Two-level space allocation (§3.2.1).

The centralized :class:`GlobalAllocator` hands out 128 KB extents of a
device's logical LBA space and persists its state via in-place updates.
Each logical chunk runs a :class:`BitmapAllocator` that carves those
extents into 4 KB blocks; compressed pages need their blocks *contiguous*
so a page read stays a single device I/O.  Bitmap and index mutations are
logged to the WAL purely for recovery.

:class:`SpaceManager` glues the two levels together behind the interface
the storage node uses: ``allocate(n_blocks) -> start LBA`` / ``free``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.common.errors import AllocationError, OutOfSpaceError
from repro.common.units import EXTENT_SIZE, LBA_SIZE

#: 4 KB blocks per 128 KB extent.
BLOCKS_PER_EXTENT = EXTENT_SIZE // LBA_SIZE


class GlobalAllocator:
    """Centralized extent allocator for one device's logical space."""

    def __init__(self, device_capacity: int) -> None:
        if device_capacity < EXTENT_SIZE:
            raise ValueError("device smaller than one extent")
        self.total_extents = device_capacity // EXTENT_SIZE
        # Lazy free space: extents >= _frontier were never handed out, so
        # only recycled extents need an explicit free list.  This keeps the
        # allocator O(allocated) even for multi-TB devices.
        self._frontier = 0
        self._recycled: List[int] = []
        self._allocated: Set[int] = set()

    def allocate_extent(self) -> int:
        """Return the extent index of a fresh 128 KB extent."""
        if self._recycled:
            extent = self._recycled.pop()
        elif self._frontier < self.total_extents:
            extent = self._frontier
            self._frontier += 1
        else:
            raise OutOfSpaceError("global allocator exhausted")
        self._allocated.add(extent)
        return extent

    def free_extent(self, extent: int) -> None:
        if extent not in self._allocated:
            raise AllocationError(f"double free of extent {extent}")
        self._allocated.remove(extent)
        self._recycled.append(extent)

    @property
    def allocated_extents(self) -> int:
        return len(self._allocated)

    @property
    def free_extents(self) -> int:
        return (self.total_extents - self._frontier) + len(self._recycled)

    def restore(self, allocated: Set[int]) -> None:
        """Reset state from recovery (the WAL replays chunk ownership)."""
        bad = {e for e in allocated if not 0 <= e < self.total_extents}
        if bad:
            raise AllocationError(f"extents out of range: {sorted(bad)}")
        self._allocated = set(allocated)
        self._frontier = max(allocated) + 1 if allocated else 0
        self._recycled = [
            e for e in range(self._frontier) if e not in allocated
        ]


@dataclass
class _Extent:
    index: int
    bitmap: List[bool] = field(default_factory=lambda: [False] * BLOCKS_PER_EXTENT)
    used: int = 0

    def find_run(self, n: int) -> int:
        """First offset of ``n`` contiguous free blocks, or -1."""
        run = 0
        for i, bit in enumerate(self.bitmap):
            run = 0 if bit else run + 1
            if run == n:
                return i - n + 1
        return -1

    def set_range(self, start: int, n: int, value: bool) -> None:
        for i in range(start, start + n):
            if self.bitmap[i] == value:
                state = "allocated" if value else "free"
                raise AllocationError(
                    f"extent {self.index}: block {i} already {state}"
                )
            self.bitmap[i] = value
        self.used += n if value else -n


class BitmapAllocator:
    """Per-chunk 4 KB block allocator over global extents."""

    def __init__(self, global_allocator: GlobalAllocator) -> None:
        self._global = global_allocator
        self._extents: Dict[int, _Extent] = {}

    def allocate(self, n_blocks: int) -> int:
        """Allocate ``n_blocks`` contiguous 4 KB blocks; returns start LBA."""
        if not 1 <= n_blocks <= BLOCKS_PER_EXTENT:
            raise AllocationError(
                f"cannot allocate {n_blocks} contiguous blocks "
                f"(max {BLOCKS_PER_EXTENT})"
            )
        for extent in self._extents.values():
            offset = extent.find_run(n_blocks)
            if offset >= 0:
                extent.set_range(offset, n_blocks, True)
                return extent.index * BLOCKS_PER_EXTENT + offset
        index = self._global.allocate_extent()
        extent = _Extent(index)
        self._extents[index] = extent
        extent.set_range(0, n_blocks, True)
        return index * BLOCKS_PER_EXTENT

    def free(self, start_lba: int, n_blocks: int) -> None:
        extent_index, offset = divmod(start_lba, BLOCKS_PER_EXTENT)
        extent = self._extents.get(extent_index)
        if extent is None:
            raise AllocationError(f"free of unowned extent {extent_index}")
        if offset + n_blocks > BLOCKS_PER_EXTENT:
            raise AllocationError("free range crosses extent boundary")
        extent.set_range(offset, n_blocks, False)
        if extent.used == 0:
            del self._extents[extent_index]
            self._global.free_extent(extent_index)

    def restore(self, allocations) -> None:
        """Rebuild bitmap state from ``(start_lba, n_blocks)`` pairs
        (WAL recovery)."""
        extents = {start // BLOCKS_PER_EXTENT for start, _ in allocations}
        for start, n_blocks in allocations:
            if (start + n_blocks - 1) // BLOCKS_PER_EXTENT != start // BLOCKS_PER_EXTENT:
                raise AllocationError(
                    f"allocation [{start}, +{n_blocks}) crosses an extent"
                )
        self._global.restore(extents)
        self._extents = {index: _Extent(index) for index in sorted(extents)}
        for start, n_blocks in allocations:
            extent = self._extents[start // BLOCKS_PER_EXTENT]
            extent.set_range(start % BLOCKS_PER_EXTENT, n_blocks, True)

    @property
    def used_blocks(self) -> int:
        return sum(e.used for e in self._extents.values())

    @property
    def used_bytes(self) -> int:
        return self.used_blocks * LBA_SIZE


class SpaceManager:
    """The storage node's allocation facade.

    Wraps one global allocator and one bitmap allocator (one logical chunk
    per node in this reproduction; the cluster package models multi-chunk
    placement at a higher level).
    """

    def __init__(self, device_capacity: int) -> None:
        self.global_allocator = GlobalAllocator(device_capacity)
        self.bitmap = BitmapAllocator(self.global_allocator)

    def allocate_blocks(self, nbytes: int) -> int:
        """Allocate contiguous space for ``nbytes`` (4 KB-aligned up)."""
        n_blocks = max(1, -(-nbytes // LBA_SIZE))
        return self.bitmap.allocate(n_blocks)

    def free_blocks(self, start_lba: int, nbytes: int) -> None:
        n_blocks = max(1, -(-nbytes // LBA_SIZE))
        self.bitmap.free(start_lba, n_blocks)

    @property
    def used_bytes(self) -> int:
        return self.bitmap.used_bytes

    @property
    def reserved_bytes(self) -> int:
        """Bytes of extents claimed from the device (128 KB granularity)."""
        return self.global_allocator.allocated_extents * EXTENT_SIZE
