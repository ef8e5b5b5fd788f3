"""Unit coverage for the codec memo (repro.compression.memo)."""

import random
import threading
import time
import zlib
from collections import Counter, OrderedDict

import pytest

from repro.api.config import NodeConfig, ReproConfig
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.compression import memo
from repro.compression.gzipdev import HARDWARE_GZIP_LEVEL, HardwareGzip
from repro.compression.helper import ZstdHelper
from repro.compression.memo import (
    MEMO_CAPACITY_BYTES,
    CodecMemoCache,
    content_key,
    get_codec,
)
from repro.compression.lz77 import MatchFinder
from repro.compression.selector import AlgorithmSelector
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore
from tests.perf.memo_swap import memo_capacity


PAGE = (b"polar" * 4096)[: 16 * 1024]
ENTRY = CodecMemoCache._ENTRY_CHARGE


# -- the cache --------------------------------------------------------------


def test_memo_hit_and_miss_counters():
    cache = CodecMemoCache(1 << 20)
    key = content_key("lz4", PAGE)
    assert cache.get(key) is None
    cache.put(key, b"payload")
    assert cache.get(key) == b"payload"
    assert cache.hits == 1 and cache.misses == 1


def test_memo_keys_are_content_addressed():
    # Same bytes through different buffer types -> same key; one flipped
    # bit -> different key.  This is what makes serving a result for
    # other bytes structurally impossible.
    assert content_key("lz4", PAGE) == content_key(
        "lz4", memoryview(bytearray(PAGE))
    )
    flipped = bytearray(PAGE)
    flipped[100] ^= 0x01
    assert content_key("lz4", PAGE) != content_key("lz4", flipped)
    assert content_key("lz4", PAGE) != content_key("zstd", PAGE)


def test_memo_evicts_lru_under_pressure():
    cache = CodecMemoCache(3 * (900 + ENTRY))
    for i in range(8):
        cache.put(("lz4", bytes([i]) * 16), bytes(900))
    assert len(cache) == 3
    assert cache.used_bytes == 3 * (900 + ENTRY)
    # The newest entry survived; the oldest was evicted.
    assert cache.get(("lz4", bytes([7]) * 16)) is not None
    assert cache.get(("lz4", bytes([0]) * 16)) is None
    # A hit refreshes: 5 was the oldest resident, now 6 goes first.
    assert cache.get(("lz4", bytes([5]) * 16)) is not None
    cache.put(("lz4", b"new"), bytes(900))
    assert cache.get(("lz4", bytes([6]) * 16)) is None
    assert cache.get(("lz4", bytes([5]) * 16)) is not None


def test_memo_charges_bytes_and_never_admits_more_than_capacity():
    cache = CodecMemoCache(1000)
    cache.put(("lz4", b"a"), bytes(1000))  # 1000 + overhead > capacity
    assert len(cache) == 0 and cache.used_bytes == 0
    cache.put(("lz4", b"b"), bytes(300))
    cache.put(("hw-gzip.len", b"c"), 1234)
    assert cache.used_bytes == 300 + 2 * ENTRY
    cache.put(("lz4", b"b"), bytes(100))  # replaced, not double-charged
    assert cache.used_bytes == 100 + 2 * ENTRY and len(cache) == 2
    with pytest.raises(ValueError):
        CodecMemoCache(-1)


def test_memo_zero_capacity_disabled_in_runtime():
    with memo_capacity(0) as cache:
        payload = memo.compress("lz4", PAGE)
        assert memo.compress("lz4", PAGE) == payload
    assert get_codec("lz4").decompress(payload) == PAGE
    assert len(cache) == 0 and cache.hits == 0 and cache.misses == 2


class _YieldingItems(OrderedDict):
    """Hands the GIL over between a lookup and what is done with it."""

    def get(self, key, default=None):
        found = super().get(key, default)
        time.sleep(0)
        return found

    def pop(self, key, default=None):
        found = super().pop(key, default)
        time.sleep(0)
        return found


def test_memo_survives_concurrent_get_and_put():
    # Two serve_in_thread servers (or a server thread beside a local
    # volume) share the process-wide cache.  Without the lock this dies
    # with KeyError in move_to_end on an entry another thread has just
    # evicted, or ends with used_bytes adrift.
    cache = CodecMemoCache(16 * (100 + ENTRY))
    cache._items = _YieldingItems()
    keys = [("lz4", bytes([k])) for k in range(64)]
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(2000):
                key = rng.choice(keys)
                if rng.random() < 0.5:
                    cache.get(key)
                else:
                    cache.put(key, bytes(rng.randrange(1, 100)))
                assert cache.used_bytes <= cache.capacity_bytes
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert cache.used_bytes == sum(size for _, size in cache._items.values())
    assert cache.used_bytes <= cache.capacity_bytes


# -- the two module-level calls ----------------------------------------------


def test_runtime_compress_is_memoized_and_correct():
    with memo_capacity(1 << 20) as cache:
        first = memo.compress("zstd", PAGE)
        second = memo.compress("zstd", bytearray(PAGE))
    assert first == second == get_codec("zstd").compress(PAGE)
    assert cache.hits == 1
    assert get_codec("zstd").decompress(first) == PAGE


def test_hw_length_is_keyed_on_the_block_alone():
    # A content-keyed length shared by every device in the process is
    # only right if every engine compresses alike: the level is not a
    # constructor argument (all PolarCSD engines are level 5, §3.2.2).
    with pytest.raises(TypeError):
        HardwareGzip(level=9)
    block = PAGE[:4096]
    with memo_capacity(1 << 20) as cache:
        length = memo.hw_compressed_len(block)
        assert memo.hw_compressed_len(block) == length
    assert length == len(zlib.compress(block, HARDWARE_GZIP_LEVEL))
    assert cache.hits == 1 and len(cache) == 1


def test_distinct_pages_leave_the_memo_within_its_constant():
    # The worst case for the footprint: no page repeats, so every lookup
    # misses and inserts, and every page is stored compressed — 400
    # packed payloads of ~6 KiB beside 400 sizes, over the constant.
    rng = random.Random(5)
    selector = AlgorithmSelector()
    with memo_capacity(MEMO_CAPACITY_BYTES) as cache:
        for _ in range(400):
            page = rng.randbytes(6000).ljust(DB_PAGE_SIZE, b"\0")
            selector.select(page).output.pack()  # as a page write does
            assert cache.used_bytes <= MEMO_CAPACITY_BYTES
    assert cache.hits == 0 and cache.misses == 800
    assert len(cache) < 800  # the bound was reached and held by eviction


def test_a_three_replica_consolidation_parses_each_image_once(monkeypatch):
    # Every replica consolidates the same image from the same redo: the
    # first sizes both codecs and packs what it stores, the other two are
    # answered by the sizes and the payload it recorded.  Pages cover both
    # gates (a big redo re-evaluates, a small one reuses the last codec)
    # and a page too random to store compressed.  Inline, so that every
    # parse runs in this process, where it is counted.
    parses = Counter()
    tokenize = MatchFinder.tokenize
    inline = ZstdHelper()
    inline.close()
    monkeypatch.setattr(memo, "_HELPER", inline)

    def counted(self, data, start=0, record=False):
        parses[self.max_chain, bytes(data)] += 1
        return tokenize(self, data, start, record)

    monkeypatch.setattr(MatchFinder, "tokenize", counted)
    rng = random.Random(8)
    with memo_capacity(MEMO_CAPACITY_BYTES):
        store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=5)
        assert len(store.nodes) == 3
        now = 0.0
        pages = {
            1: (bytes(rng.choice(b"abcd") for _ in range(DB_PAGE_SIZE)), 6000),
            2: ((b"polar-%05d|" * 1500)[:DB_PAGE_SIZE], 6000),
            3: ((b"store-%05d|" * 1500)[:DB_PAGE_SIZE], 40),
            4: (rng.randbytes(DB_PAGE_SIZE), 6000),
        }
        for page_no, (image, _) in pages.items():
            now = store.write_page(now, page_no, image).commit_us
        records = [
            RedoRecord(lsn, page_no, 100, rng.randbytes(size))
            for lsn, (page_no, (_, size)) in enumerate(pages.items(), 1)
        ]
        now = store.write_redo(now, records)
        parsed_before = sum(parses.values())
        store.checkpoint(now)
    consolidated = sum(parses.values()) - parsed_before
    assert consolidated >= len(pages)  # every image was parsed ...
    assert max(parses.values()) == 1  # ... once, by one replica


# -- removed settings ----------------------------------------------------------


def test_removed_config_keys_hit_the_unknown_key_error():
    with pytest.raises(ValueError, match="unknown config sections.*perf"):
        ReproConfig.from_dict({"perf": {"pool_workers": 2}})
    with pytest.raises(ValueError, match="unknown config sections.*parallel"):
        ReproConfig.from_dict({"parallel": {"workers": 2}})
