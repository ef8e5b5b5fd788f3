"""Baselines: LSM/MyRocks, InnoDB compression, log-structured store."""

import dataclasses
import random

import pytest

from repro.engine.resources import Resource
from repro.common.errors import ReproError
from repro.common.units import KiB, LBA_SIZE, MiB
from repro.compression.memo import get_codec
from repro.csd.device import PlainSSD
from repro.csd.specs import P5510
from repro.baselines.innodb import InnoDBEngine, InnoDBStore
from repro.baselines.lsm import CODEC, LSMTree, _decode_entries
from repro.baselines.myrocks import MyRocksEngine
from repro.workloads.datagen import dataset_pages
from benchmarks.bench_fig16_comparison import TXNS, myrocks, run_leg


def make_device(volume=256 * MiB, seed=0):
    spec = dataclasses.replace(
        P5510, logical_capacity=volume, physical_capacity=volume,
        jitter_sigma=0.0,
    )
    return PlainSSD(spec, seed=seed)


def value_for(key, size=100):
    base = b"val-%010d|" % key
    return (base * (size // len(base) + 1))[:size]


# --------------------------------------------------------------------- #
# LSM                                                                    #
# --------------------------------------------------------------------- #


def test_lsm_put_get_round_trip():
    lsm = LSMTree(make_device(), memtable_bytes=8 * KiB)
    now = 0.0
    for key in range(200):
        now = lsm.put(now, key, value_for(key))
    for key in (0, 50, 199):
        value, now = lsm.get(now, key)
        assert value == value_for(key)
    missing, _ = lsm.get(now, 9999)
    assert missing is None


def test_lsm_updates_shadow_older_versions():
    lsm = LSMTree(make_device(), memtable_bytes=4 * KiB)
    now = 0.0
    for round_no in range(5):
        for key in range(40):
            now = lsm.put(now, key, value_for(key + round_no * 1000))
    for key in range(0, 40, 7):
        value, now = lsm.get(now, key)
        assert value == value_for(key + 4000)


def test_lsm_delete_is_tombstone():
    lsm = LSMTree(make_device(), memtable_bytes=4 * KiB)
    now = 0.0
    for key in range(60):
        now = lsm.put(now, key, value_for(key))
    now = lsm.flush_now(now)
    now = lsm.delete(now, 7)
    now = lsm.flush_now(now)
    value, _ = lsm.get(now, 7)
    assert value is None


def test_lsm_compaction_triggers_and_amplifies_writes():
    lsm = LSMTree(make_device(), memtable_bytes=4 * KiB)
    now = 0.0
    rng = random.Random(0)
    # 200 keys: each L0 compaction (past LEVELS.l0_limit tables) rewrites
    # more than the last flush brought in.
    for _ in range(600):
        now = lsm.put(now, rng.randrange(200), value_for(rng.randrange(10**6)))
    assert lsm.stats.compactions > 0
    assert lsm.stats.write_amplification > 1.2
    assert lsm.stats.compaction_read_bytes > 0


def test_lsm_compaction_charges_compute_resource():
    """Flush and compaction codec work runs on the compute resource: with
    its one core booked far ahead, the puts finish only after it frees."""
    booked_us = 1e9
    compute = Resource("compute")
    compute.serve(0.0, booked_us)
    lsm = LSMTree(make_device(), compute, memtable_bytes=4 * KiB)
    now = 0.0
    for key in range(400):
        now = lsm.put(now, key, value_for(key))
    assert lsm.stats.compactions > 0
    assert now > booked_us


def table_entries(lsm):
    """Every ``(key, value)`` the tree's SSTables hold, level by level."""
    levels = []
    for tables in lsm._levels:
        entries = []
        for table in tables:
            for block in table.blocks:
                data = lsm.device.read(
                    0.0, block.lba, block.n_blocks * LBA_SIZE
                ).data
                blob = get_codec(CODEC).decompress(data[: block.payload_len])
                entries.extend(_decode_entries(blob))
        levels.append(entries)
    return levels


def test_lsm_drops_tombstones_at_the_deepest_level():
    """A compaction into the deepest non-empty level drops tombstones and
    the rows they shadow, so the SSTables hold live rows only."""
    lsm = LSMTree(make_device())
    now = 0.0
    for key in range(400):
        now = lsm.put(now, key, value_for(key, 400))
    for key in range(400):
        now = lsm.delete(now, key)
    live = range(1000, 1120)
    for key in live:
        now = lsm.put(now, key, value_for(key, 400))
    levels = [entries for entries in table_entries(lsm) if entries]
    assert len(levels) >= 2
    assert all(value is not None for _, value in levels[-1])
    stored = [key for entries in levels for key, _ in entries]
    assert sorted(stored + list(lsm._memtable)) == list(live)
    for key in (0, 399):
        assert lsm.get(now, key)[0] is None
    for key in (live[0], live[-1]):
        assert lsm.get(now, key)[0] == value_for(key, 400)


def test_lsm_reuses_trimmed_extents():
    """Churn whose live data fits a 256 KiB device: compaction trims the
    tables it merges, and their extents take later tables."""
    lsm = LSMTree(make_device(volume=256 * KiB))
    now = 0.0
    for round_no in range(60):
        for key in range(50):
            now = lsm.put(now, key, value_for(key + 1000 * round_no))
    assert lsm.stats.compactions > 0
    for key in range(0, 50, 7):
        value, now = lsm.get(now, key)
        assert value == value_for(key + 59000)


def test_lsm_device_full_still_raises():
    lsm = LSMTree(make_device(volume=256 * KiB))
    rng = random.Random(0)
    with pytest.raises(ReproError, match="LSM device full"):
        for key in range(10_000):
            lsm.put(0.0, key, rng.randbytes(400))


def test_lsm_compresses_data():
    lsm = LSMTree(make_device(), memtable_bytes=32 * KiB)
    now = 0.0
    for key in range(500):
        now = lsm.put(now, key, value_for(key))
    now = lsm.flush_now(now)
    assert lsm.stored_bytes < lsm.stats.user_write_bytes


# --------------------------------------------------------------------- #
# MyRocks engine                                                         #
# --------------------------------------------------------------------- #


def test_myrocks_statement_api():
    db = MyRocksEngine()
    db.create_table("t")
    now = 0.0
    for key in range(100):
        now = db.insert(now, "t", key, value_for(key)).done_us
    assert db.select(now, "t", 5).value == value_for(5)
    now = db.update(now, "t", 5, b"changed").done_us
    assert db.select(now, "t", 5).value == b"changed"
    now = db.delete(now, "t", 5).done_us
    assert db.select(now, "t", 5).value is None
    with pytest.raises(ReproError):
        db.insert(0.0, "missing", 1, b"x")
    with pytest.raises(ReproError):
        db.create_table("t")


def test_fig16_myrocks_compacts_during_the_measured_run():
    """Fig 16's MyRocks leg, at the figure's own parameters, reaches
    ``LSMTree._compact_level`` during its measured transactions."""
    run, compactions = run_leg(myrocks())
    assert run.transactions == TXNS
    assert compactions >= 1


def test_myrocks_compression_ratio():
    db = MyRocksEngine()
    db.create_table("t")
    now = db.bulk_load(0.0, "t", [(k, value_for(k)) for k in range(2000)])
    db.checkpoint(now)
    assert db.compression_ratio() > 1.5


# --------------------------------------------------------------------- #
# InnoDB                                                                 #
# --------------------------------------------------------------------- #


def _db_page(seed):
    return dataset_pages("fnb", 1, seed=seed)[0]


def test_innodb_store_round_trip():
    store = InnoDBStore()
    page = _db_page(1)
    store.write_page(0.0, 7, page)
    result = store.read_page(1000.0, 7)
    assert result.data == page


def test_innodb_table_compression_uses_power_of_two_blocks():
    store = InnoDBStore(table_compression=True)
    store.write_page(0.0, 1, _db_page(2))
    location = store._locations[1]
    assert location.n_blocks in (1, 2, 4)


def test_innodb_page_compression_allows_any_block_count():
    store = InnoDBStore(table_compression=False)
    for seed in range(6):
        store.write_page(seed * 1e3, seed, _db_page(seed))
    counts = {loc.n_blocks for loc in store._locations.values()}
    assert counts - {1, 2, 4} or counts <= {1, 2, 3, 4}


def test_innodb_compression_costs_compute_cpu():
    """Compression and decompression run on the compute node's cores:
    with them booked ahead, a page write and its read-back each finish
    after the booking ends, by their codec time."""
    booked_us = 1e6
    compute = Resource("compute")
    store = InnoDBStore(compute=compute)
    compute.serve(0.0, booked_us)
    written_us = store.write_page(0.0, 1, _db_page(3)).done_us
    assert written_us > booked_us
    assert store._locations[1].compressed
    compute.serve(written_us, booked_us)
    assert store.read_page(written_us, 1).done_us > written_us + booked_us


def test_innodb_block_granularity_wastes_space_vs_polarstore():
    """Figure 2a / Table 1: 4 KB file-block indexing stores more bytes than
    byte-granular indexing for the same data."""
    from repro.storage.node import NodeConfig
    from repro.storage.store import build_node

    pages = dataset_pages("finance", 16, seed=0)
    innodb = InnoDBStore()
    polar = build_node(
        "polar", NodeConfig(opt_algorithm_selection=False), volume_bytes=64 * MiB
    )
    for i, page in enumerate(pages):
        innodb.write_page(i * 1e3, i, page)
        polar.write_page(i * 1e3, i, page)
    assert polar.physical_used_bytes < innodb.physical_bytes


def test_innodb_engine_end_to_end():
    db = InnoDBEngine(buffer_pool_pages=8)  # small pool: forces write-back
    db.create_table("t")
    now = 0.0
    for key in range(400):
        now = db.insert(now, "t", key, value_for(key)).done_us
    for key in (0, 123, 399):
        assert db.select(now, "t", key).value == value_for(key)
    now = db.checkpoint(now)
    assert db.compression_ratio() > 1.0


def test_innodb_engine_update_delete():
    db = InnoDBEngine()
    db.create_table("t")
    now = 0.0
    for key in range(50):
        now = db.insert(now, "t", key, value_for(key)).done_us
    now = db.update(now, "t", 10, b"NEW").done_us
    assert db.select(now, "t", 10).value == b"NEW"
    now = db.delete(now, "t", 10).done_us
    assert db.select(now, "t", 10).value is None

