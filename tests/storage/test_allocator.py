"""Two-level space allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AllocationError, OutOfSpaceError
from repro.common.units import KiB, LBA_SIZE, MiB
from repro.storage.allocator import (
    BLOCKS_PER_EXTENT,
    BitmapAllocator,
    GlobalAllocator,
    SpaceManager,
)


def test_extent_geometry():
    assert BLOCKS_PER_EXTENT == 32  # 128 KiB / 4 KiB


def test_global_allocator_hands_out_distinct_extents():
    alloc = GlobalAllocator(1 * MiB)  # 8 extents
    extents = [alloc.allocate_extent() for _ in range(8)]
    assert len(set(extents)) == 8
    with pytest.raises(OutOfSpaceError):
        alloc.allocate_extent()


def test_global_allocator_recycles_freed_extents():
    alloc = GlobalAllocator(1 * MiB)
    extent = alloc.allocate_extent()
    alloc.free_extent(extent)
    assert alloc._recycled == [extent]
    assert alloc.allocate_extent() == extent  # recycled first


def test_global_allocator_rejects_double_free():
    alloc = GlobalAllocator(1 * MiB)
    extent = alloc.allocate_extent()
    alloc.free_extent(extent)
    with pytest.raises(AllocationError):
        alloc.free_extent(extent)


def test_global_allocator_restore():
    alloc = GlobalAllocator(1 * MiB)
    alloc.restore({0, 3, 5})
    assert alloc._allocated == {0, 3, 5}
    got = {alloc.allocate_extent() for _ in range(5)}
    assert got == {1, 2, 4, 6, 7}


def test_global_allocator_restore_validates_range():
    alloc = GlobalAllocator(1 * MiB)
    with pytest.raises(AllocationError):
        alloc.restore({100})


def test_bitmap_allocates_contiguous_runs():
    bitmap = BitmapAllocator(GlobalAllocator(1 * MiB))
    first = bitmap.allocate(4)
    second = bitmap.allocate(4)
    assert second == first + 4  # packs into the same extent
    assert bitmap.used_blocks == 8


def test_bitmap_reuses_freed_holes():
    bitmap = BitmapAllocator(GlobalAllocator(1 * MiB))
    a = bitmap.allocate(4)
    bitmap.allocate(4)
    bitmap.free(a, 4)
    c = bitmap.allocate(2)
    assert c == a  # first-fit lands in the hole


def test_bitmap_releases_empty_extent_to_global():
    global_alloc = GlobalAllocator(1 * MiB)
    bitmap = BitmapAllocator(global_alloc)
    lba = bitmap.allocate(4)
    assert len(global_alloc._allocated) == 1
    bitmap.free(lba, 4)
    assert not global_alloc._allocated


def test_bitmap_rejects_oversized_and_double_ops():
    bitmap = BitmapAllocator(GlobalAllocator(1 * MiB))
    with pytest.raises(AllocationError):
        bitmap.allocate(BLOCKS_PER_EXTENT + 1)
    with pytest.raises(AllocationError):
        bitmap.allocate(0)
    lba = bitmap.allocate(2)
    bitmap.free(lba, 2)
    with pytest.raises(AllocationError):
        bitmap.free(lba, 2)


def test_bitmap_rejects_cross_extent_free():
    bitmap = BitmapAllocator(GlobalAllocator(1 * MiB))
    bitmap.allocate(32)
    with pytest.raises(AllocationError):
        bitmap.free(30, 4)


def test_space_manager_rounds_to_blocks():
    manager = SpaceManager(1 * MiB)
    manager.allocate_blocks(5000)  # needs 2 blocks
    assert manager.used_bytes == 2 * LBA_SIZE
    assert len(manager.global_allocator._allocated) == 1


def test_space_manager_exhaustion():
    manager = SpaceManager(256 * KiB)  # 2 extents = 64 blocks
    for _ in range(64):
        manager.allocate_blocks(LBA_SIZE)
    with pytest.raises(OutOfSpaceError):
        manager.allocate_blocks(LBA_SIZE)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(1, 8)),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=50, deadline=None)
def test_allocator_never_double_allocates(ops):
    """Property: across arbitrary alloc/free interleavings, live ranges
    never overlap and used_blocks is exact."""
    bitmap = BitmapAllocator(GlobalAllocator(4 * MiB))
    live = {}  # start -> n
    for is_alloc, n in ops:
        if is_alloc or not live:
            try:
                start = bitmap.allocate(n)
            except OutOfSpaceError:
                continue
            for existing, existing_n in live.items():
                assert start + n <= existing or start >= existing + existing_n
            live[start] = n
        else:
            start, n_existing = next(iter(live.items()))
            bitmap.free(start, n_existing)
            del live[start]
    assert bitmap.used_blocks == sum(live.values())
