"""Object-storage tiering (§6 alternative space-saving approaches)."""

import random

import pytest

from repro.api.config import NodeConfig
from repro.common.errors import ReproError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.storage.store import build_node
from examples.tiering import ObjectStore, TieringManager


def make_page(seed=0):
    rng = random.Random(seed)
    words = [b"cold", b"archive", b"2025-01-01", b"history", b"ledger"]
    out = bytearray()
    while len(out) < DB_PAGE_SIZE:
        out += rng.choice(words) + b":%07d;" % rng.randrange(10**7)
    return bytes(out[:DB_PAGE_SIZE])


@pytest.fixture
def tiered():
    node = build_node("tier", NodeConfig(), volume_bytes=64 * MiB)
    manager = TieringManager(node, ObjectStore())
    pages = {i: make_page(i) for i in range(12)}
    now = 0.0
    for page_no, page in pages.items():
        now = node.write_page(now, page_no, page).done_us
    return node, manager, pages, now


def test_archive_frees_local_space(tiered):
    node, manager, pages, now = tiered
    local_before = node.device_used_bytes
    archived, now = manager.archive_to_object_store(now, list(range(6)))
    assert node.device_used_bytes < local_before
    assert manager.archived_pages == 6
    assert archived.compressed_len < 6 * DB_PAGE_SIZE
    assert manager.remote.stored_bytes == archived.compressed_len
    # Local index no longer knows the archived pages.
    assert node.index.get(0) is None
    assert node.index.get(6) is not None


def test_archived_reads_are_correct_but_slow(tiered):
    node, manager, pages, now = tiered
    _, now = manager.archive_to_object_store(now, list(range(6)))
    local = manager.read_page(now, 7)
    remote = manager.read_page(local.done_us, 2)
    assert local.data == pages[7]
    assert remote.data == pages[2]
    # Object storage is orders of magnitude slower than local NVMe.
    assert (remote.done_us - local.done_us) > 10 * (local.done_us - now)


def test_restore_brings_pages_back(tiered):
    node, manager, pages, now = tiered
    _, now = manager.archive_to_object_store(now, [0, 1, 2])
    now = manager.restore(now, 1)
    assert manager.archived_pages == 0
    assert manager.remote.stored_bytes == 0
    for page_no in (0, 1, 2):
        result = node.read_page(now, page_no)
        assert result.data == pages[page_no]


def test_archiving_a_page_with_cached_redo_leaves_no_redo_behind(tiered):
    from repro.storage.redo import RedoRecord

    node, manager, pages, now = tiered
    node.add_redo(now, [
        RedoRecord(1, 2, 0, b"HOT!"),   # archived below
        RedoRecord(2, 7, 0, b"stay"),   # stays local
    ])
    _, now = manager.archive_to_object_store(now, [0, 1, 2])
    # The archived image carries the redo; nothing of page 2 stays cached.
    assert manager.read_page(now, 2).data == b"HOT!" + pages[2][4:]
    assert list(node.redo_cache) == [7]
    assert node._redo_page_bytes == {
        7: sum(r.size_bytes for r in node.redo_cache[7])
    }
    assert node._redo_cache_bytes == node._redo_page_bytes[7]


def test_double_archive_rejected(tiered):
    node, manager, pages, now = tiered
    _, now = manager.archive_to_object_store(now, [0, 1])
    with pytest.raises(ReproError):
        manager.archive_to_object_store(now, [1, 2])
    with pytest.raises(ReproError):
        manager.archive_to_object_store(now, [])


def test_restore_of_unarchived_page_rejected(tiered):
    node, manager, pages, now = tiered
    with pytest.raises(ReproError):
        manager.restore(now, 5)


def test_object_store_latency_model():
    store = ObjectStore(request_overhead_us=15_000.0)
    done = store.put(0.0, "k", b"x" * 1024)
    assert done > 1_000.0  # dominated by request overhead
    blob, got = store.get(done, "k")
    assert blob == b"x" * 1024
    with pytest.raises(ReproError):
        store.get(got, "missing")


def test_object_store_accounting():
    store = ObjectStore()
    store.put(0.0, "a", b"x" * 100)
    store.put(0.0, "b", b"y" * 50)
    assert store.stored_bytes == 150
    store.delete("a")
    assert store.stored_bytes == 50
    store.delete("a")  # idempotent
    assert store.stats.puts == 2
