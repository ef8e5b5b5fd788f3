"""BufferPool write-back mode and device parallelism units."""

import dataclasses

import pytest

from repro.common.units import KiB, MiB
from repro.csd.device import PlainSSD
from repro.csd.specs import P5510
from repro.db.bufferpool import BufferPool, OpContext
from repro.db.page import Page, PageType


class _RecordingStore:
    """Minimal store capturing write-backs."""

    def __init__(self):
        self.writes = []
        self.pages = {}

    def write_page(self, start_us, page_no, data):
        self.writes.append(page_no)
        self.pages[page_no] = data

        class R:
            done_us = start_us + 10.0
            commit_us = start_us + 10.0

        return R()

    def read_page(self, start_us, page_no):
        class R:
            data = self.pages[page_no]
            done_us = start_us + 5.0

        R.data = self.pages[page_no]
        return R()


def test_writeback_pool_flushes_dirty_pages_on_eviction():
    store = _RecordingStore()
    pool = BufferPool(2, store, writeback=True)
    ctx = OpContext(0.0)
    a = pool.new_page(1, PageType.LEAF, ctx)
    a.insert(1, b"x", 1)
    pool.new_page(2, PageType.LEAF, ctx)
    pool.new_page(3, PageType.LEAF, ctx)  # evicts page 1 (dirty)
    assert store.writes == [1]
    # The evicted page can be re-read from the store.
    page = pool.get_page(ctx, 1)
    assert page.get(1) == b"x"


def test_default_pool_drops_dirty_pages_silently():
    store = _RecordingStore()
    pool = BufferPool(2, store, writeback=False)
    ctx = OpContext(0.0)
    a = pool.new_page(1, PageType.LEAF, ctx)
    a.insert(1, b"x", 1)
    pool.new_page(2, PageType.LEAF, ctx)
    pool.new_page(3, PageType.LEAF, ctx)
    assert store.writes == []  # PolarDB mode: storage rebuilds from redo


def test_clean_pages_evict_without_writeback():
    store = _RecordingStore()
    pool = BufferPool(2, store, writeback=True)
    ctx = OpContext(0.0)
    page = pool.new_page(1, PageType.LEAF, ctx)
    page.drain_mods()
    page.dirty = False
    pool.new_page(2, PageType.LEAF, ctx)
    pool.new_page(3, PageType.LEAF, ctx)
    assert store.writes == []


def test_device_parallelism_allows_concurrent_service():
    spec = dataclasses.replace(
        P5510, logical_capacity=32 * MiB, physical_capacity=32 * MiB,
        jitter_sigma=0.0,
    )
    serial = PlainSSD(spec, parallelism=1)
    parallel = PlainSSD(spec, parallelism=4)
    data = b"z" * (16 * KiB)
    for device in (serial, parallel):
        for i in range(4):
            device.write(0.0, i * 4, data)
    # Four simultaneous reads: the parallel device overlaps them.
    serial_done = max(
        serial.read(0.0, i * 4, 16 * KiB).done_us for i in range(4)
    )
    parallel_done = max(
        parallel.read(0.0, i * 4, 16 * KiB).done_us for i in range(4)
    )
    assert parallel_done < serial_done / 2.5


def test_hit_rate_gauge_reads_the_shared_family_counters():
    # A bound deployment has an RW pool and an idle RO pool in one
    # registry; the unlabelled gauge used to read whichever registered
    # last (the RO pool: 0.0 forever).
    from repro.api import PolarStore

    client = PolarStore.open(store={"volume_bytes": 32 * MiB})
    client.create_table("t")
    for key in range(8):
        client.insert("t", key, b"v%d" % key)
    for key in range(8):
        assert client.select("t", key).value == b"v%d" % key
    metrics = client.metrics
    hits = metrics.get("db.bufferpool.hits").value
    misses = metrics.get("db.bufferpool.misses").value
    rate = metrics.get("db.bufferpool.hit_rate").value
    assert hits > 0
    assert rate == hits / (hits + misses) > 0
