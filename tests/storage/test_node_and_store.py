"""Storage node + replicated PolarStore: end-to-end behaviour."""

import dataclasses
import random

import pytest

from repro.api.config import NodeConfig
from repro.common.errors import (
    PageCorruptionError,
    ReplicationError,
    ReproError,
)
from repro.common.units import DB_PAGE_SIZE, LBA_SIZE, KiB, MiB
from repro.compression.zstd import _read_varint
from repro.csd.specs import P5510, POLARCSD2
from repro.obs.events import recording
from repro.storage.index import CompressionInfo
from repro.storage.node import PreparedWrite
from repro.storage.redo import RedoRecord
from repro.storage.store import CompressionMode, PolarStore, build_node


def make_page(seed=0, compressible=True):
    if not compressible:
        return random.Random(seed).randbytes(DB_PAGE_SIZE)
    rng = random.Random(seed)
    words = [b"account", b"balance", b"status=active", b"2026-07-04", b"txn"]
    out = bytearray()
    while len(out) < DB_PAGE_SIZE:
        out += rng.choice(words) + b"|%06d|" % rng.randrange(10**6)
    return bytes(out[:DB_PAGE_SIZE])


@pytest.fixture
def node():
    return build_node("test", NodeConfig(), volume_bytes=64 * MiB, seed=3)


@pytest.fixture
def store():
    return PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=5)


# --------------------------------------------------------------------- #
# Single node                                                            #
# --------------------------------------------------------------------- #


def test_write_read_round_trip(node):
    page = make_page(1)
    node.write_page(0.0, 7, page)
    result = node.read_page(1000.0, 7)
    assert result.data == page
    assert result.done_us > 1000.0


def test_compressed_page_uses_fewer_blocks(node):
    page = make_page(2)
    node.write_page(0.0, 1, page)
    entry = node.index.get(1)
    assert entry.status is CompressionInfo.NORMAL
    assert entry.n_blocks < 4
    assert node.device_used_bytes < DB_PAGE_SIZE


def test_incompressible_page_stored_raw(node):
    page = make_page(3, compressible=False)
    node.write_page(0.0, 1, page)
    entry = node.index.get(1)
    assert entry.status is CompressionInfo.UNCOMPRESSED
    assert entry.n_blocks == 4
    assert node.read_page(1.0, 1).data == page


def test_overwrite_frees_old_space(node):
    node.write_page(0.0, 1, make_page(1))
    used_once = node.device_used_bytes
    for seed in range(2, 8):
        node.write_page(seed * 1000.0, 1, make_page(seed))
    # Space stays bounded: old versions are freed.
    assert node.device_used_bytes <= used_once + 4 * KiB


def test_read_missing_page_raises(node):
    with pytest.raises(ReproError):
        node.read_page(0.0, 42)


def test_compression_ratio_reported(node):
    for i in range(16):
        node.write_page(i * 1000.0, i, make_page(i))
    assert node.compression_ratio() > 2.0


def test_software_compression_off_stores_raw():
    node = build_node(
        "hw-only",
        NodeConfig(software_compression=False),
        volume_bytes=64 * MiB,
    )
    node.write_page(0.0, 1, make_page(1))
    assert node.index.get(1).status is CompressionInfo.UNCOMPRESSED
    # The CSD still compresses in hardware.
    assert node.physical_used_bytes < DB_PAGE_SIZE


def test_dual_layer_beats_hardware_only():
    """Figure 14: software (zstd) + hardware achieves a higher ratio than
    hardware alone on the same data.  Algorithm selection is off: the
    paper's "+dual-layer" configuration uses zstd by default."""
    dual = build_node(
        "dual",
        NodeConfig(opt_algorithm_selection=False),
        volume_bytes=64 * MiB,
    )
    hw = build_node(
        "hw", NodeConfig(software_compression=False), volume_bytes=64 * MiB
    )
    for i in range(24):
        page = make_page(i)
        dual.write_page(i * 1e3, i, page)
        hw.write_page(i * 1e3, i, page)
    # On word-soup pages the margin is modest; the Figure 14 benchmark
    # exercises realistic datasets where it reaches the paper's 21–50%.
    assert dual.compression_ratio() > hw.compression_ratio() * 1.02


def test_algorithm_selection_tracks_last_used(node):
    page = make_page(5)
    node.write_page(0.0, 1, page)
    first = node.index.get(1).algorithm
    # Small update with low CPU (a consolidation's share of redo): no
    # re-evaluation, same algorithm.
    prepared = node.prepare_page(1, page, update_percent=0.05)
    assert not prepared.codec_evaluated
    assert prepared.algorithm == first


def test_followers_reuse_the_codec_the_leader_stored(store, monkeypatch):
    """The last codec is read from each node's own index entry, so a
    consolidation below the 30 % gate re-evaluates on no replica (the
    leader alone prepared the page)."""
    store.write_page(0.0, 3, make_page(5))
    evaluated = {}
    for node in store.nodes:
        def spy(page_no, data, update_percent, node=node,
                real=node.prepare_page):
            prepared = real(page_no, data, update_percent=update_percent)
            evaluated[node.name] = prepared.codec_evaluated
            return prepared

        monkeypatch.setattr(node, "prepare_page", spy)
    store.write_redo(1e3, [RedoRecord(1, 3, 100, b"REDO" * 10)])
    store.checkpoint(1e4)
    assert evaluated == {node.name: False for node in store.nodes}


def test_an_evaluated_raw_write_reports_its_codec_decision(store):
    """Algorithm 1 ran on a random page and kept it raw: the decision
    is still a codec event, with ``codec=none``."""
    with recording() as rec:
        committed = store.write_page(0.0, 4, make_page(4, compressible=False))
    assert committed.prepared.status is CompressionInfo.UNCOMPRESSED
    assert committed.prepared.codec_evaluated
    selected = [e for e in rec.events("codec") if e.kind == "selected"]
    assert [e.fields["codec"] for e in selected] == ["none"]


def test_redo_cache_and_consolidated_read(node):
    base = make_page(1)
    node.write_page(0.0, 1, base)
    records = [RedoRecord(i + 1, 1, i * 100, b"REDO" * 4) for i in range(5)]
    node.add_redo(1e3, records)
    result = node.read_page(2e3, 1)
    assert result.consolidated
    expected = bytearray(base)
    for record in records:
        expected[record.offset : record.offset + len(record.data)] = record.data
    assert result.data == bytes(expected)
    # Second read needs no consolidation.
    again = node.read_page(1e6, 1)
    assert not again.consolidated
    assert again.data == bytes(expected)


def test_consolidation_of_page_born_from_redo(node):
    records = [RedoRecord(1, 9, 0, b"NEWPAGE!")]
    node.add_redo(0.0, records)
    result = node.read_page(1.0, 9)
    assert result.data[:8] == b"NEWPAGE!"
    assert result.data[8:] == bytes(DB_PAGE_SIZE - 8)


def test_redo_cache_spills_to_log_store():
    node = build_node(
        "spill", NodeConfig(redo_cache_bytes=1 * KiB), volume_bytes=64 * MiB
    )
    node.write_page(0.0, 1, make_page(1))
    batch = [RedoRecord(i + 1, 1, 0, b"x" * 150) for i in range(10)]
    node.add_redo(1e3, batch)
    assert node.log_store.blocks_for(1) >= 1
    result = node.read_page(2e3, 1)
    assert result.io_reads >= 2  # base page + spilled logs
    assert result.data[:150] == b"x" * 150


def test_per_page_log_overflow_consolidates_instead():
    """When one page accumulates more redo than its 4 KB log slot can hold,
    the node folds the logs into the page image rather than overflowing."""
    node = build_node(
        "overflow", NodeConfig(redo_cache_bytes=2 * KiB), volume_bytes=64 * MiB
    )
    node.write_page(0.0, 1, make_page(1))
    big = [RedoRecord(i + 1, 1, 0, b"y" * 500) for i in range(20)]
    node.add_redo(1e3, big)
    # The page was consolidated: no pending redo anywhere, data is current.
    assert node.log_store.blocks_for(1) == 0
    result = node.read_page(2e3, 1)
    assert not result.consolidated
    assert result.data[:500] == b"y" * 500


def test_archive_range_round_trip(node):
    pages = {i: make_page(i + 100) for i in range(8)}
    for page_no, page in pages.items():
        node.write_page(page_no * 1e3, page_no, page)
    before = node.device_used_bytes
    node.archive_range(1e6, list(pages))
    after = node.device_used_bytes
    assert after < before  # heavy compression shrank the range
    for page_no, page in pages.items():
        assert node.read_page(2e6, page_no).data == page
    assert node.index.get(0).status is CompressionInfo.HEAVY


def test_archive_large_range_spans_multiple_pieces(node):
    """A segment whose compressed size exceeds one 128 KiB extent must be
    stored as multiple contiguous pieces and still read back correctly."""
    rng = random.Random(42)
    pages = {}
    now = 0.0
    for i in range(16):
        # Barely-compressible pages keep the segment large.
        page = bytes(
            rng.choice(b"abcdefghijklmnopqrstuvwxyz0123456789")
            for _ in range(DB_PAGE_SIZE)
        )
        pages[i] = page
        now = node.write_page(now, i, page).done_us
    now = node.archive_range(now, list(pages))
    meta = node.heavy.get(node.index.get(0).segment_id)
    assert len(meta.pieces) > 1
    for page_no, page in pages.items():
        assert node.read_page(now, page_no).data == page


def test_archive_read_uses_segment_buffer(node):
    for i in range(4):
        node.write_page(i * 1e3, i, make_page(i))
    node.archive_range(1e6, [0, 1, 2, 3])
    cold = node.read_page(2e6, 0)
    assert cold.done_us > 2e6 and cold.cpu_us > 0.0
    # Same segment: served from the buffer, with no device read and no
    # decompression, so it completes the moment it is issued.
    warm = node.read_page(3e6, 1)
    assert warm.data == make_page(1)
    assert (warm.done_us, warm.cpu_us) == (3e6, 0.0)


def test_corrupt_segment_without_a_checksum_is_a_corrupt_page(node):
    """A segment whose registry entry carries no CRC (checksum 0 = skip
    verification) meets the decoder unchecked: what the decoder makes of
    damaged bytes must be the one error the read path turns into a
    repairable corrupt-copy report.  A stored code length of 200 used to
    be a negative shift, a ``ValueError`` nothing caught."""
    for i in range(4):
        node.write_page(i * 1e3, i, make_page(i))
    now = node.archive_range(1e6, [0, 1, 2, 3])
    meta = node.heavy.get(node.index.get(0).segment_id)
    node.heavy.restore({meta.segment_id: dataclasses.replace(meta, checksum=0)})
    lba = meta.pieces[0][0]
    block = bytearray(node.data_device.read(now, lba, LBA_SIZE).data)
    # magic, mode, then four varints (original size, token and literal
    # counts, literal table size) and the table's first symbol: the
    # byte after that is its code length.
    at = 2
    for _ in range(4):
        _, at = _read_varint(block, at)
    assert block[:2] == b"\x5a\x01" and 0 < block[at + 1] <= 12
    block[at + 1] = 200
    now = node.data_device.write(now, lba, bytes(block)).done_us
    with pytest.raises(PageCorruptionError) as caught:
        node.read_page(now, 2)
    assert caught.value.symptom == "segment_corrupt"


# --------------------------------------------------------------------- #
# Replicated store                                                       #
# --------------------------------------------------------------------- #


def test_store_write_commits_after_quorum(store):
    page = make_page(1)
    committed = store.write_page(0.0, 1, page)
    assert committed.commit_us > 0
    # All three replicas hold the page.
    for node in store.nodes:
        assert node.index.get(1) is not None
    assert store.read_page(1e3, 1).data == page


def test_store_survives_one_follower_failure(store):
    store.fail_node(2)
    committed = store.write_page(0.0, 1, make_page(1))
    assert committed.commit_us > 0
    assert store.nodes[2].index.get(1) is None  # failed node missed it


def test_store_loses_quorum_with_two_failures(store):
    store.fail_node(1)
    store.fail_node(2)
    with pytest.raises(ReplicationError):
        store.write_page(0.0, 1, make_page(1))


def test_store_redo_write_is_fast_with_bypass(store):
    records = [RedoRecord(1, 1, 0, b"y" * 256)]
    commit = store.write_redo(0.0, records)
    assert commit < 120.0  # Optane + one RTT, well under data-device writes


def test_store_redo_slower_without_bypass():
    fast = PolarStore(NodeConfig(opt_bypass_redo=True), volume_bytes=64 * MiB)
    slow = PolarStore(NodeConfig(opt_bypass_redo=False), volume_bytes=64 * MiB)
    records = [RedoRecord(1, 1, 0, bytes(1024) + b"z" * 512)]
    fast_commit = fast.write_redo(0.0, records)
    slow_commit = slow.write_redo(0.0, records)
    assert fast_commit < slow_commit


def test_store_none_mode_bypasses_software_compression(store):
    page = make_page(4)
    store.write_page(0.0, 2, page, mode=CompressionMode.NONE)
    assert store.leader.index.get(2).status is CompressionInfo.UNCOMPRESSED
    assert store.read_page(1e3, 2).data == page


def test_store_non_page_aligned_write_reverts_to_none(store):
    blob = b"q" * (5 * KiB)
    store.write_page(0.0, 3, blob)
    assert store.leader.index.get(3).status is CompressionInfo.UNCOMPRESSED
    # Round-trips through the raw path.
    raw = store.leader.read_page(1e3, 3)
    assert raw.data[: len(blob)] == blob


def test_zero_length_write_is_one_block_on_both_entry_points(node, store):
    """A raw write is sized in whole blocks, at least one, whichever
    entry point built it — and an empty one is then refused before the
    allocator, the device or the WAL record anything, because the index
    has no entry for zero bytes."""
    assert PreparedWrite.raw(b"").device_bytes == LBA_SIZE
    assert node.prepare_page(1, b"").n_blocks == 1
    for replica, write in (
        (node, lambda: node.write_page(0.0, 1, b"")),
        (store.leader, lambda: store.write_page(0.0, 1, b"")),
    ):
        with pytest.raises(ReproError, match="empty page write"):
            write()
        assert replica.index.get(1) is None
        assert replica.logical_used_bytes == 0
        assert not list(replica.wal.replay())


def test_partial_write_decompresses_and_stores_raw(node):
    """§3.2.3 no-compression rule: a partial write into a compressed range
    reads + decompresses the old data and rewrites the page uncompressed."""
    page = make_page(8)
    node.write_page(0.0, 1, page)
    assert node.index.get(1).status is CompressionInfo.NORMAL
    node.write_partial(1e3, 1, 100, b"PATCHED-BYTES")
    entry = node.index.get(1)
    assert entry.status is CompressionInfo.UNCOMPRESSED
    expected = bytearray(page)
    expected[100 : 100 + 13] = b"PATCHED-BYTES"
    assert node.read_page(2e3, 1).data == bytes(expected)


def test_partial_write_to_missing_page_starts_from_zero(node):
    node.write_partial(0.0, 77, 0, b"HEAD")
    data = node.read_page(1e3, 77).data
    assert data[:4] == b"HEAD"
    assert data[4:] == bytes(DB_PAGE_SIZE - 4)


def test_partial_write_bounds_checked(node):
    with pytest.raises(ReproError):
        node.write_partial(0.0, 1, DB_PAGE_SIZE - 2, b"xxxx")
    with pytest.raises(ReproError):
        node.write_partial(0.0, 1, -1, b"x")
    with pytest.raises(ReproError):
        node.write_partial(0.0, 1, 0, b"")


def test_store_partial_write_replicates(store):
    page = make_page(9)
    store.write_page(0.0, 4, page)
    commit = store.write_partial(1e3, 4, 0, b"ZZZZ")
    assert commit > 1e3
    for node in store.nodes:
        assert node.index.get(4).status is CompressionInfo.UNCOMPRESSED
        assert node.read_page(2e3, 4).data[:4] == b"ZZZZ"


def test_store_heavy_mode_requires_archive_api(store):
    with pytest.raises(ReproError):
        store.write_page(0.0, 1, make_page(1), mode=CompressionMode.HEAVY)


def test_store_archive_applies_to_all_replicas(store):
    for i in range(4):
        store.write_page(i * 1e3, i, make_page(i))
    store.archive_range(1e6, [0, 1, 2, 3])
    for node in store.nodes:
        assert node.index.get(0).status is CompressionInfo.HEAVY


def test_hardware_only_cluster_matches_c1_shape():
    """C1: PolarCSD1.0, software compression and Opt#2/3 disabled."""
    from repro.csd.specs import POLARCSD1

    config = NodeConfig(
        software_compression=False,
        opt_algorithm_selection=False,
        opt_per_page_log=False,
    )
    store = PolarStore(config, data_spec=POLARCSD1, volume_bytes=64 * MiB)
    for i in range(12):
        store.write_page(i * 1e3, i, make_page(i))
    ratio = store.compression_ratio()
    assert 1.5 < ratio < 5.0  # hardware gzip only


# --------------------------------------------------------------------- #
# The one quorum fan-out behind write_page / write_partial / write_redo  #
# --------------------------------------------------------------------- #

#: op name -> (store, now_us, page_no) -> commit time.
WRITE_OPS = {
    "write_page": lambda store, now, page: store.write_page(
        now, page, make_page(100 + page)
    ).commit_us,
    "write_partial": lambda store, now, page: store.write_partial(
        now, page, 64, b"PARTIAL"
    ),
    "write_redo": lambda store, now, page: store.write_redo(
        now, [RedoRecord(page, page, 0, b"redo")]  # one LSN per page
    ),
}


def _crash(store, index, now):
    store.fail_node(index)


def _fail_devices(store, index, now):
    from repro.chaos.plan import FaultKind, FaultPlan, FaultRule

    plan = FaultPlan(seed=0)
    plan.add(FaultRule(
        FaultKind.DEVICE_FAIL, scope=store.nodes[index].name, from_us=now
    ))
    plan.attach_to_store(store)


def _leader_state(store):
    leader = store.leader
    return (
        dict(leader.index.items()),
        leader.wal._next_lsn,
        len(leader.durable_redo_blobs),
        {p: list(r) for p, r in leader.redo_cache.items()},
    )


@pytest.mark.parametrize("failure", [_crash, _fail_devices])
@pytest.mark.parametrize("op", sorted(WRITE_OPS))
def test_fan_out_commits_at_quorum_and_tracks_missed_pages(store, op, failure):
    now = store.write_page(0.0, 1, make_page(1)).commit_us
    now = store.write_page(now, 2, make_page(2)).commit_us
    failure(store, 2, now)
    commit = WRITE_OPS[op](store, now, 1)
    assert commit > now
    # Exactly the touched page went stale, on exactly the lost follower.
    assert store.group.missed == [set(), set(), {1}]
    assert store.read_page(commit, 1).done_us > commit
    store.fail_node(1)
    before = _leader_state(store)
    with pytest.raises(ReplicationError):
        WRITE_OPS[op](store, commit, 2)
    if failure is _fail_devices:
        # A failing device is only discovered by writing to it: this
        # refusal comes from the ack count, after the leader persisted.
        assert store.group.missed[2] == {1, 2}
    else:
        # Quorum known to be lost: refused before the leader is mutated.
        assert _leader_state(store) == before
        assert store.group.missed == [set(), set(), {1}]


@pytest.mark.parametrize("op", sorted(WRITE_OPS))
def test_only_a_full_page_write_clears_a_missed_page(store, op):
    now = store.write_page(0.0, 1, make_page(1)).commit_us
    store.group.missed[2].add(1)  # follower 2's copy of page 1 is stale
    WRITE_OPS[op](store, now, 1)
    # A full fresh image makes the follower current again; a splice or a
    # redo batch applied over a stale base does not.
    assert (1 in store.group.missed[2]) == (op != "write_page")


def test_refused_writes_leave_no_span_behind(store):
    """A write that raises must not leave its root span on the tracer's
    ambient stack (every later span would become its child and no trace
    would ever be published again)."""
    tracer = store.metrics.tracer
    now = store.write_page(0.0, 1, make_page(1)).commit_us
    published = tracer.last
    store.fail_node(1)
    store.fail_node(2)
    for _ in range(3):
        with pytest.raises(ReplicationError):
            store.write_page(now, 2, make_page(2))
        assert len(tracer._stack) == 0
    for refused in ("write_partial", "write_redo"):
        with pytest.raises(ReplicationError):
            WRITE_OPS[refused](store, now, 1)
        assert len(tracer._stack) == 0
    assert tracer.last is published  # a refused write publishes nothing
    now = store.recover_node(1, now)
    commit = store.write_page(now, 2, make_page(2)).commit_us
    assert len(tracer._stack) == 0
    assert tracer.last is not published
    assert tracer.last.root.name == "storage.page_write"
    assert tracer.last.root.end_us == commit


def test_failed_read_leaves_no_span_behind(node):
    tracer = node.metrics.tracer
    with pytest.raises(ReproError):
        node.read_page(0.0, 404)
    assert len(tracer._stack) == 0
    node.write_page(0.0, 1, make_page(1))
    node.read_page(1e3, 1)
    assert tracer.last.root.name == "storage.page_read"


# --------------------------------------------------------------------- #
# Redo-cache byte accounting                                             #
# --------------------------------------------------------------------- #


def _assert_redo_accounting(node):
    recount = {
        page: sum(r.size_bytes for r in records)
        for page, records in node.redo_cache.items()
    }
    assert node._redo_page_bytes == recount
    assert list(node._redo_page_bytes) == list(node.redo_cache)
    assert node._redo_cache_bytes == sum(recount.values())
    assert all(node.redo_cache.values())  # no empty per-page lists


def test_redo_cache_byte_counts_survive_every_mutation():
    from repro.storage.recovery import recover_node
    from repro.storage.redo import encode_records

    node = build_node(
        "acct", NodeConfig(redo_cache_bytes=2 * KiB), volume_bytes=64 * MiB
    )
    rng = random.Random(11)
    now, lsn = 0.0, 0
    for page in range(8):
        now = node.write_page(now, page, make_page(page)).done_us
    for step in range(120):
        roll = rng.random()
        page = rng.randrange(10)  # pages 8 and 9 exist only as redo
        if roll < 0.70:
            batch = []
            for _ in range(rng.randint(1, 4)):
                lsn += 1
                batch.append(RedoRecord(
                    lsn, rng.randrange(10), rng.randrange(0, 4096, 64),
                    bytes([lsn % 251]) * rng.randint(8, 400),
                ))
            now = node.persist_redo(now, encode_records(batch))
            now = node.add_redo(now, batch)  # spills once past 2 KiB
        elif roll < 0.80:
            now = node.read_page(now, page).done_us  # consolidates
        elif roll < 0.88:
            now = node.repair_page(now, page, make_page(step)).done_us
        elif roll < 0.95:
            node.drop_page(page)
        else:
            node = recover_node(node)  # re-stages durable redo
        _assert_redo_accounting(node)
    assert node._redo_spills.value > 0 and node._consolidations.value > 0
    node.consolidate_pending(now)
    assert node.redo_cache == {} and node._redo_cache_bytes == 0
    _assert_redo_accounting(node)


def test_redo_eviction_picks_the_same_victims_as_the_full_rescan():
    """The per-page byte counts must choose exactly the victim the old
    per-eviction rescan chose, ties included (first-inserted wins)."""
    node = build_node(
        "victim", NodeConfig(redo_cache_bytes=1 * KiB), volume_bytes=64 * MiB
    )
    evict = node._evict_one_page
    victims = []

    def checked_evict(start_us):
        cache = node.redo_cache
        # The pre-refactor victim expression, kept as the reference.
        reference = max(
            cache, key=lambda p: sum(r.size_bytes for r in cache[p])
        )
        before = set(cache)
        done = evict(start_us)
        assert before - set(cache) == {reference}
        victims.append(reference)
        return done

    node._evict_one_page = checked_evict
    rng = random.Random(5)
    now = 0.0
    for lsn in range(1, 241):
        # Equal-sized records across few pages force frequent ties.
        record = RedoRecord(lsn, rng.randrange(6), 0, b"t" * 64)
        now = node.add_redo(now, [record])
    assert len(victims) > 10 and len(set(victims)) > 3
