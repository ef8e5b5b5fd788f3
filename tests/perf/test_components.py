"""Unit coverage for the fast-path building blocks (memo, runtime, env)."""

import pytest

from repro import perf
from repro.api.config import ReproConfig
from repro.compression.base import get_codec
from repro.perf.memo import (
    CodecMemoCache,
    memo_key_compress,
    memo_key_decompress,
)
from repro.perf.runtime import (
    PerfRuntime,
    configure,
    configure_from_env,
    deactivate,
    perf_active,
)


PAGE = (b"polar" * 4096)[: 16 * 1024]


# -- memo -------------------------------------------------------------------


def test_memo_hit_and_miss_counters():
    memo = CodecMemoCache(1 << 20)
    key = memo_key_compress("lz4", PAGE)
    assert memo.get(key) is None
    memo.put(key, (b"payload", 123))
    assert memo.get(key) == (b"payload", 123)
    stats = memo.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert 0.0 < stats["hit_rate"] < 1.0


def test_memo_keys_are_content_addressed():
    # Same bytes through different buffer types -> same key; one flipped
    # bit -> different key.  This is what makes serving corrupted bytes
    # from the memo structurally impossible.
    assert memo_key_compress("lz4", PAGE) == memo_key_compress(
        "lz4", memoryview(bytearray(PAGE))
    )
    flipped = bytearray(PAGE)
    flipped[100] ^= 0x01
    assert memo_key_compress("lz4", PAGE) != memo_key_compress(
        "lz4", flipped
    )
    assert memo_key_compress("lz4", PAGE) != memo_key_compress(
        "zstd", PAGE
    )
    assert memo_key_compress("lz4", PAGE) != memo_key_decompress(
        "lz4", PAGE
    )


def test_memo_evicts_lru_under_pressure():
    memo = CodecMemoCache(3000)
    for i in range(8):
        memo.put(("c", "lz4", bytes([i]) * 16), (bytes(900), i))
    stats = memo.stats()
    assert stats["evictions"] > 0
    assert memo.used_bytes <= 3000
    # The newest entry survived; the oldest was evicted.
    assert memo.get(("c", "lz4", bytes([7]) * 16)) is not None
    assert memo.get(("c", "lz4", bytes([0]) * 16)) is None


def test_memo_zero_capacity_disabled_in_runtime():
    runtime = PerfRuntime(memo_capacity_bytes=0)
    payload, crc = runtime.compress("lz4", PAGE)
    assert runtime.compress("lz4", PAGE) == (payload, crc)
    assert get_codec("lz4").decompress(payload) == PAGE
    assert len(runtime.memo) == 0
    assert runtime.codec_calls_saved == 0


# -- runtime ----------------------------------------------------------------


def test_runtime_compress_is_memoized_and_correct():
    runtime = PerfRuntime(memo_capacity_bytes=1 << 20)
    first = runtime.compress("zstd", PAGE)
    second = runtime.compress("zstd", PAGE)
    assert first == second
    assert runtime.codec_calls_saved == 1
    assert get_codec("zstd").decompress(first[0]) == PAGE


def test_runtime_decompress_roundtrip():
    runtime = PerfRuntime(memo_capacity_bytes=1 << 20)
    payload = get_codec("lz4").compress(PAGE)
    assert runtime.decompress("lz4", payload, verified=True) == PAGE
    assert runtime.decompress("lz4", payload, verified=True) == PAGE
    assert runtime.codec_calls_saved == 1


def test_module_level_calls_are_inline_without_a_runtime_and_memoized_with():
    # The one memo-or-inline decision: call sites never ask which.
    hw = get_codec("hw-gzip")
    block = PAGE[:4096]
    try:
        deactivate()
        payload, crc = perf.compress("lz4", bytearray(PAGE))
        assert payload == get_codec("lz4").compress(PAGE)
        assert crc == 0  # lazy on the inline branch: the caller checksums
        assert perf.decompress("lz4", payload) == PAGE
        assert perf.hw_compressed_len(hw, block) == len(hw.compress(block))
        runtime = configure(PerfRuntime(memo_capacity_bytes=1 << 20))
        fast_payload, fast_crc = perf.compress("lz4", bytearray(PAGE))
        assert fast_payload == payload and fast_crc != 0
        assert perf.compress("lz4", PAGE) == (fast_payload, fast_crc)
        assert perf.decompress("lz4", payload) == PAGE
        assert perf.decompress("lz4", payload) == PAGE
        assert perf.hw_compressed_len(hw, block) == len(hw.compress(block))
        assert perf.hw_compressed_len(hw, block) == len(hw.compress(block))
        assert runtime.codec_calls_saved == 3
    finally:
        deactivate()


# -- REPRO_PERF / config ----------------------------------------------------


def test_configure_from_env(monkeypatch):
    try:
        monkeypatch.delenv("REPRO_PERF", raising=False)
        deactivate()
        configure_from_env()
        assert perf_active() is None  # unset leaves things off
        monkeypatch.setenv("REPRO_PERF", "0")
        configure_from_env()
        assert perf_active() is None
        monkeypatch.setenv("REPRO_PERF", "memo=8")
        configure_from_env()
        runtime = perf_active()
        assert runtime is not None
        assert runtime.memo.capacity_bytes == 8 * 1024 * 1024
        monkeypatch.setenv("REPRO_PERF", "memo=oops")
        with pytest.raises(ValueError):
            configure_from_env()
        # Unknown keys — the removed pool knobs included — fail loudly,
        # naming the key, and install nothing.
        deactivate()
        for spec in ("turbo=9", "pool=2", "kind=thread"):
            monkeypatch.setenv("REPRO_PERF", spec)
            with pytest.raises(ValueError, match=repr(spec.split("=")[0])):
                configure_from_env()
            assert perf_active() is None
    finally:
        deactivate()


def test_removed_config_keys_hit_the_unknown_key_error():
    with pytest.raises(ValueError, match="unknown keys.*'perf'.*pool_workers"):
        ReproConfig.from_dict({"perf": {"pool_workers": 2}})
    with pytest.raises(ValueError, match="unknown config sections.*parallel"):
        ReproConfig.from_dict({"parallel": {"workers": 2}})
