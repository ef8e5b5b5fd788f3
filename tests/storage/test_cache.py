"""Byte-bounded LRU cache."""

import pytest

from repro.storage.cache import LRUCache


def test_put_get_and_hit_accounting():
    cache = LRUCache(100)
    cache.put("a", b"xxxx")
    assert cache.get("a") == b"xxxx"
    assert cache.get("b") is None
    assert cache.hits == 1
    assert cache.misses == 1


def test_eviction_is_lru_order():
    cache = LRUCache(10)
    cache.put("a", b"xxxx")
    cache.put("b", b"xxxx")
    cache.get("a")  # a becomes most-recent
    evicted = cache.put("c", b"xxxx")
    assert [k for k, _ in evicted] == ["b"]
    assert "a" in cache and "c" in cache


def test_replace_updates_size():
    cache = LRUCache(10)
    cache.put("a", b"xxxxxxxx")
    cache.put("a", b"xx")
    assert cache.used_bytes == 2
    assert len(cache) == 1


def test_oversized_value_not_admitted():
    cache = LRUCache(4)
    evicted = cache.put("big", b"xxxxxxxx")
    assert evicted == []
    assert "big" not in cache
    assert cache.used_bytes == 0


def test_remove_and_clear():
    cache = LRUCache(100)
    cache.put("a", b"xx")
    assert cache.remove("a") == b"xx"
    assert cache.remove("a") is None
    cache.put("b", b"xx")
    cache.clear()
    assert len(cache) == 0
    assert cache.used_bytes == 0


def test_peek_does_not_touch_recency():
    cache = LRUCache(8)
    cache.put("a", b"xxxx")
    cache.put("b", b"xxxx")
    cache.peek("a")  # should NOT refresh a
    evicted = cache.put("c", b"xxxx")
    assert [k for k, _ in evicted] == ["a"]


def test_custom_sizer():
    cache = LRUCache(10, sizer=lambda v: v[0])
    cache.put("a", (6, "payload"))
    evicted = cache.put("b", (6, "payload"))
    assert [k for k, _ in evicted] == ["a"]


def test_zero_capacity_rejects_everything():
    cache = LRUCache(0)
    cache.put("a", b"x")
    assert "a" not in cache


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        LRUCache(-1)


def test_multi_eviction_until_fits():
    cache = LRUCache(12)
    cache.put("a", b"xxxx")
    cache.put("b", b"xxxx")
    cache.put("c", b"xxxx")
    # 10 bytes: must evict a, b, and c before d fits under 12.
    evicted = cache.put("d", b"xxxxxxxxxx")
    assert [k for k, _ in evicted] == ["a", "b", "c"]
    assert cache.used_bytes == 10
    assert "d" in cache
