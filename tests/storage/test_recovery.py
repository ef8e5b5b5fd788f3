"""Crash recovery: rebuild node state from WAL replay + durable redo."""

import random

import pytest

from repro.api.config import NodeConfig
from repro.common.errors import WALError
from repro.common.units import DB_PAGE_SIZE, KiB, MiB
from repro.storage.index import CompressionInfo
from repro.storage.perpage_log import PerPageLogStore, ScatteredLogStore
from repro.storage.recovery import recover_node
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore, build_node

from .wal_faults import corrupt_record, tear_tail


def make_page(seed=0):
    rng = random.Random(seed)
    words = [b"ledger", b"entry", b"account", b"2026-07-04", b"credit"]
    out = bytearray()
    while len(out) < DB_PAGE_SIZE:
        out += rng.choice(words) + b"|%08d|" % rng.randrange(10**8)
    return bytes(out[:DB_PAGE_SIZE])


def crash_and_recover(node):
    """Simulate a crash: all in-memory state is lost, devices survive."""
    return recover_node(node)


def test_recovery_restores_pages():
    node = build_node("r1", NodeConfig(), volume_bytes=64 * MiB)
    pages = {i: make_page(i) for i in range(10)}
    now = 0.0
    for page_no, page in pages.items():
        now = node.write_page(now, page_no, page).done_us
    recovered = crash_and_recover(node)
    for page_no, page in pages.items():
        assert recovered.read_page(now, page_no).data == page
    assert len(recovered.index) == len(pages)


def test_recovery_restores_index_metadata():
    node = build_node("r2", NodeConfig(), volume_bytes=64 * MiB)
    node.write_page(0.0, 1, make_page(1))
    before = node.index.get(1)
    recovered = crash_and_recover(node)
    after = recovered.index.get(1)
    assert after.status is before.status
    assert after.algorithm == before.algorithm
    assert after.lba == before.lba
    assert after.n_blocks == before.n_blocks
    assert after.payload_len == before.payload_len


def test_recovery_restores_allocator_exactly():
    node = build_node("r3", NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for i in range(20):
        now = node.write_page(now, i, make_page(i)).done_us
    # Overwrites create frees in the WAL too.
    for i in range(0, 20, 3):
        now = node.write_page(now, i, make_page(i + 100)).done_us
    used_before = node.space.used_bytes
    recovered = crash_and_recover(node)
    assert recovered.space.used_bytes == used_before
    # New writes after recovery must not collide with existing data.
    now = recovered.write_page(now, 999, make_page(999)).done_us
    for i in range(20):
        expected = make_page(i + 100) if i % 3 == 0 else make_page(i)
        assert recovered.read_page(now, i).data == expected


def test_recovery_survives_overwrite_chains():
    node = build_node("r4", NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for round_no in range(6):
        now = node.write_page(now, 1, make_page(round_no)).done_us
    recovered = crash_and_recover(node)
    assert recovered.read_page(now, 1).data == make_page(5)


def test_recovery_replays_unconsolidated_redo():
    """Redo that was committed but not yet folded into a page must survive
    the crash (it is durable on the performance device)."""
    node = build_node("r5", NodeConfig(), volume_bytes=64 * MiB)
    base = make_page(1)
    now = node.write_page(0.0, 1, base).done_us
    records = [RedoRecord(100 + i, 1, i * 50, b"CRASHSAFE") for i in range(4)]
    from repro.storage.redo import encode_records

    now = node.persist_redo(now, encode_records(records))
    node.add_redo(now, records)

    recovered = crash_and_recover(node)
    result = recovered.read_page(now, 1)
    assert result.consolidated
    expected = bytearray(base)
    for record in records:
        expected[record.offset : record.offset + len(record.data)] = record.data
    assert result.data == bytes(expected)


def test_recovery_does_not_reapply_consolidated_redo():
    """applied_lsn gates replay: redo folded into the page before the
    crash must not be applied twice (records are not idempotent across
    later writes)."""
    node = build_node("r6", NodeConfig(), volume_bytes=64 * MiB)
    base = make_page(2)
    now = node.write_page(0.0, 1, base).done_us
    from repro.storage.redo import encode_records

    old = [RedoRecord(10, 1, 0, b"OLDOLD")]
    now = node.persist_redo(now, encode_records(old))
    node.add_redo(now, old)
    now = node.read_page(now, 1).done_us  # consolidates, applied_lsn=10
    # The page is then legitimately overwritten with fresh content.
    fresh = make_page(3)
    now = node.write_page(now, 1, fresh).done_us

    recovered = crash_and_recover(node)
    result = recovered.read_page(now, 1)
    assert not result.consolidated  # nothing left to replay
    assert result.data == fresh


def test_recovery_restores_heavy_segments():
    node = build_node("r7", NodeConfig(), volume_bytes=64 * MiB)
    pages = {i: make_page(i + 50) for i in range(6)}
    now = 0.0
    for page_no, page in pages.items():
        now = node.write_page(now, page_no, page).done_us
    now = node.archive_range(now, list(pages))
    recovered = crash_and_recover(node)
    for page_no, page in pages.items():
        assert recovered.read_page(now, page_no).data == page
    assert recovered.index.get(0).status is CompressionInfo.HEAVY
    assert len(recovered.heavy._segments) == 1


def test_recovery_restores_segment_allocations():
    """Heavy-segment blocks must be re-marked allocated after recovery, or
    new writes would overwrite archived data."""
    node = build_node("r10", NodeConfig(), volume_bytes=64 * MiB)
    pages = {i: make_page(i) for i in range(6)}
    now = 0.0
    for page_no, page in pages.items():
        now = node.write_page(now, page_no, page).done_us
    now = node.archive_range(now, list(pages))
    used_before = node.space.used_bytes
    recovered = crash_and_recover(node)
    assert recovered.space.used_bytes == used_before
    # Heavy traffic after recovery must not clobber the segment.
    for i in range(100, 140):
        now = recovered.write_page(now, i, make_page(i)).done_us
    for page_no, page in pages.items():
        assert recovered.read_page(now, page_no).data == page


def test_segment_released_when_last_page_overwritten():
    node = build_node("r11", NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for i in range(4):
        now = node.write_page(now, i, make_page(i)).done_us
    now = node.archive_range(now, [0, 1, 2, 3])
    assert len(node.heavy._segments) == 1
    used_archived = node.space.used_bytes
    # Overwriting three pages keeps the segment (page 3 still needs it)...
    for i in range(3):
        now = node.write_page(now, i, make_page(i + 50)).done_us
    assert len(node.heavy._segments) == 1
    # ...but the last reference releases it.
    now = node.write_page(now, 3, make_page(53)).done_us
    assert len(node.heavy._segments) == 0
    assert node.space.used_bytes < used_archived + 4 * DB_PAGE_SIZE


def test_recovery_detects_corrupt_wal():
    node = build_node("r8", NodeConfig(), volume_bytes=64 * MiB)
    node.write_page(0.0, 1, make_page(1))
    corrupt_record(node.wal, 0)
    with pytest.raises(WALError):
        crash_and_recover(node)


def test_recovery_skips_checkpoint_markers():
    node = build_node("cp1", NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for i in range(6):
        now = node.write_page(now, i, make_page(i)).done_us
        node.wal.append_checkpoint()
    recovered = crash_and_recover(node)
    for i in range(6):
        assert recovered.read_page(now, i).data == make_page(i)
    assert recovered.space.used_bytes == node.space.used_bytes


def test_recovered_node_accepts_new_traffic():
    node = build_node("r9", NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for i in range(5):
        now = node.write_page(now, i, make_page(i)).done_us
    recovered = crash_and_recover(node)
    # A second crash after more writes also recovers cleanly.
    for i in range(5, 10):
        now = recovered.write_page(now, i, make_page(i)).done_us
    twice = crash_and_recover(recovered)
    for i in range(10):
        assert twice.read_page(now, i).data == make_page(i)


# -- torn WAL tails (crash mid-append) -----------------------------------------


def test_recovery_ignores_torn_wal_tail():
    """A record cut short mid-append was never acknowledged: replay stops
    there and every earlier write survives."""
    node = build_node("tt1", NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for i in range(6):
        now = node.write_page(now, i, make_page(i)).done_us
    tear_tail(node.wal, 3)
    recovered = crash_and_recover(node)
    # Pages 0..4 committed long before the torn record; page 5's final
    # WAL record may be the torn one, so no claim is made about it.
    for i in range(5):
        assert recovered.read_page(now, i).data == make_page(i)


def test_torn_tail_replay_is_idempotent():
    """Recovering twice from the same torn log converges to one state."""
    node = build_node("tt2", NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for i in range(8):
        now = node.write_page(now, i, make_page(i + 40)).done_us
    tear_tail(node.wal, 5)
    once = crash_and_recover(node)
    twice = crash_and_recover(once)
    assert len(once.index) == len(twice.index)
    for i in range(7):
        assert once.read_page(now, i).data == make_page(i + 40)
        assert twice.read_page(now, i).data == make_page(i + 40)


def test_truncated_committed_record_raises():
    """Truncation is tolerated only at the tail: the same damage on a
    record that has successors means committed data was lost."""
    node = build_node("tt4", NodeConfig(), volume_bytes=64 * MiB)
    now = node.write_page(0.0, 1, make_page(1)).done_us
    tear_tail(node.wal, 2)
    # A later append demotes the torn record to "committed" territory.
    node.write_page(now, 2, make_page(2))
    with pytest.raises(WALError):
        crash_and_recover(node)


def test_corrupt_committed_record_raises_mid_log():
    """Bit rot inside the log must fail loudly, not be silently skipped
    like a torn tail."""
    node = build_node("tt5", NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for i in range(8):
        now = node.write_page(now, i, make_page(i)).done_us
    corrupt_record(node.wal, len(node.wal._records) - 2)
    with pytest.raises(WALError):
        crash_and_recover(node)


@pytest.mark.parametrize(
    "per_page, log_store", [(True, PerPageLogStore), (False, ScatteredLogStore)]
)
def test_recovered_replica_keeps_its_peers_log_store(per_page, log_store):
    store = PolarStore(
        NodeConfig(opt_per_page_log=per_page), volume_bytes=64 * MiB, seed=3
    )
    store.fail_node(1)
    store.recover_node(1)
    assert [type(node.log_store) for node in store.nodes] == [log_store] * 3
