"""Cross-layer integration: the full stack under faults and pressure."""

import random

import pytest

from repro.common.errors import OutOfSpaceError, ReplicationError
from repro.common.units import DB_PAGE_SIZE, KiB, MiB
from repro.db.database import PolarDB
from repro.storage.node import NodeConfig
from repro.storage.recovery import recover_node
from repro.storage.store import PolarStore
from repro.workloads.sysbench import prepare_table, run_sysbench


def test_workload_survives_follower_failure_and_recovery():
    """A follower dies mid-workload; commits continue on the majority;
    after 'replacement' the cluster still serves consistent data."""
    store = PolarStore(NodeConfig(), volume_bytes=128 * MiB, seed=31)
    db = PolarDB(store=store, buffer_pool_pages=12)
    now = prepare_table(db, rows=500, seed=31)

    first = run_sysbench(db, "update_non_index", duration_s=30.0, threads=8,
                         key_range=500, start_us=now, seed=1,
                         max_transactions=30)
    store.fail_node(2)
    second = run_sysbench(db, "update_non_index", duration_s=30.0, threads=8,
                          key_range=500, start_us=now + 40e6, seed=2,
                          max_transactions=30)
    assert second.transactions == 30  # majority keeps committing
    store.recover_node(2)
    third = run_sysbench(db, "read_write", duration_s=30.0, threads=8,
                         key_range=500, start_us=now + 80e6, seed=3,
                         max_transactions=10)
    assert third.transactions == 10
    # Reads on the leader are consistent with the committed updates.
    check = db.select(now + 120e6, "sbtest", 42)
    assert check.value is not None


def test_workload_halts_without_quorum_then_resumes():
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=7)
    db = PolarDB(store=store, buffer_pool_pages=12)
    now = prepare_table(db, rows=100, seed=7)
    store.fail_node(1)
    store.fail_node(2)
    with pytest.raises(ReplicationError):
        db.insert(now, "sbtest", 10_000, b"blocked")
    store.recover_node(1)
    # (The failed statement already mutated the buffer-pool page; real
    # engines roll that back — here we simply use a fresh key.)
    result = db.insert(now + 1e3, "sbtest", 10_001, b"unblocked")
    assert result.done_us > now


def test_leader_crash_recovery_preserves_committed_data():
    """Crash the leader after a workload; rebuild it from its WAL; every
    committed row must still be readable (consolidating durable redo)."""
    store = PolarStore(NodeConfig(), volume_bytes=128 * MiB, seed=13)
    db = PolarDB(store=store, buffer_pool_pages=8)
    now = prepare_table(db, rows=400, seed=13)
    run = run_sysbench(db, "read_write", duration_s=30.0, threads=8,
                       key_range=400, start_us=now, seed=5,
                       max_transactions=20)
    assert run.transactions == 20

    # Crash + recover the leader node in place.
    store.nodes[0] = recover_node(store.leader)

    # The recovered leader serves reads; spot-check several keys through a
    # fresh compute node (cold buffer pool) against a surviving follower.
    fresh = PolarDB(store=store, buffer_pool_pages=64)
    fresh.rw.trees = db.rw.trees  # same catalog
    for key in random.Random(3).sample(range(400), 12):
        value = fresh.select(now + 120e6, "sbtest", key).value
        assert value is not None
        assert b"sbtest|%010d|" % key in value


def test_volume_exhaustion_raises_cleanly():
    store = PolarStore(
        NodeConfig(software_compression=False),
        volume_bytes=2 * MiB,
        seed=3,
    )
    incompressible = random.Random(1).randbytes(DB_PAGE_SIZE)
    with pytest.raises(OutOfSpaceError):
        now = 0.0
        for page_no in range(4096):
            now = store.write_page(now, page_no, incompressible).commit_us


def test_archive_then_update_then_recover():
    """Pages move heavy -> normal -> crash -> recover without losing
    anything."""
    from repro.storage.store import build_node

    node = build_node("mix", NodeConfig(), volume_bytes=64 * MiB)
    pages = {}
    now = 0.0
    rng = random.Random(11)
    for page_no in range(8):
        page = bytes(
            rng.choice(b"abcdefgh0123456789|,") for _ in range(DB_PAGE_SIZE)
        )
        pages[page_no] = page
        now = node.write_page(now, page_no, page).done_us
    now = node.archive_range(now, list(range(8)))
    # Updating an archived page moves it back to normal compression.
    fresh = pages[3][:8000] + b"UPDATED!" + pages[3][8008:]
    pages[3] = fresh
    now = node.write_page(now, 3, fresh).done_us

    recovered = recover_node(node)
    for page_no, page in pages.items():
        assert recovered.read_page(now, page_no).data == page


def test_compression_ratio_stable_under_churn():
    """Sustained overwrite churn must not leak space in any layer."""
    from repro.storage.store import build_node

    node = build_node(
        "churn", NodeConfig(redo_cache_bytes=16 * KiB), volume_bytes=64 * MiB
    )
    rng = random.Random(5)
    words = [b"alpha", b"beta", b"gamma", b"delta"]

    def page(seed):
        r = random.Random(seed)
        out = bytearray()
        while len(out) < DB_PAGE_SIZE:
            out += r.choice(words) + b"%05d" % r.randrange(99999)
        return bytes(out[:DB_PAGE_SIZE])

    now = 0.0
    for i in range(400):
        now = node.write_page(now, rng.randrange(24), page(i)).done_us
    # Stored blocks stay proportional to the 24 live pages, not to 400.
    assert node.logical_used_bytes == 24 * DB_PAGE_SIZE
    assert node.device_used_bytes < 24 * DB_PAGE_SIZE
    assert node.space.used_bytes == node.device_used_bytes


def test_two_stores_share_nothing():
    a = PolarStore(NodeConfig(), volume_bytes=32 * MiB, seed=1)
    b = PolarStore(NodeConfig(), volume_bytes=32 * MiB, seed=2)
    page = random.Random(0).randbytes(DB_PAGE_SIZE)
    a.write_page(0.0, 1, page)
    with pytest.raises(Exception):
        b.read_page(0.0, 1)
