"""Injected corruption can never be served from — or poison — the memo.

The codec memo is keyed on a content digest of the *post-read, CRC-
verified* payload, and the read path only consults it with
``verified=True`` after the stored checksum matched.  These tests pin
both halves of that discipline under real fault injection: a bit-
flipped payload must take the detect-and-repair path exactly as it does
serially, and unverified bytes must never enter the cache.
"""

import numpy as np
import pytest

from repro.chaos.plan import FaultKind, FaultPlan, FaultRule
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.compression.base import get_codec
from repro.perf.runtime import PerfRuntime, configure, deactivate
from repro.storage.node import NodeConfig
from repro.storage.store import PolarStore


@pytest.fixture(autouse=True)
def _clean_runtime():
    deactivate()
    yield
    deactivate()


def make_page(fill: int) -> bytes:
    rng = np.random.default_rng(fill)
    return rng.integers(0, 256, DB_PAGE_SIZE, dtype=np.uint8).tobytes()


def make_store(seed=0):
    return PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=seed)


def arm(store, kind, max_count=1):
    plan = FaultPlan(seed=3)
    plan.add(
        FaultRule(kind, scope=f"{store.leader.name}:data",
                  max_count=max_count)
    )
    plan.attach_to_store(store)
    return plan


def counter_total(store, name, **labels):
    total = 0
    for inst in store.metrics.instruments():
        if inst.kind != "counter" or inst.name != name:
            continue
        if any(inst.labels.get(k) != v for k, v in labels.items()):
            continue
        total += int(inst.value)
    return total


def _faulted_read(kind):
    """Write one page with a one-shot fault armed, then read it back."""
    store = make_store()
    arm(store, kind)
    now = store.write_page(0.0, 1, make_page(7)).commit_us
    store.leader.page_cache.remove(1)
    result = store.read_page(now, 1)
    return store, result


@pytest.mark.parametrize(
    "kind", [FaultKind.BIT_FLIP, FaultKind.TORN_WRITE]
)
def test_corrupted_read_repairs_identically_with_memo(kind):
    # Serial reference.
    serial_store, serial_result = _faulted_read(kind)
    # Same schedule with the memo active.
    configure(PerfRuntime(memo_capacity_bytes=8 * MiB))
    fast_store, fast_result = _faulted_read(kind)
    deactivate()
    assert bytes(fast_result.data) == make_page(7)
    assert bytes(fast_result.data) == bytes(serial_result.data)
    assert fast_result.done_us == serial_result.done_us
    for name in ("chaos.detected", "chaos.repaired", "chaos.unrepairable"):
        assert counter_total(fast_store, name) == \
            counter_total(serial_store, name), name
    assert counter_total(fast_store, "chaos.detected") >= 1


def test_scrub_with_memo_repairs_corrupt_copies():
    # The scrub sweep reads through the same CRC-first path, so with the
    # memo active the damaged copy is never decompressed through it — it
    # flows through the normal detect-and-repair sweep.
    configure(PerfRuntime(memo_capacity_bytes=8 * MiB))
    store = make_store()
    arm(store, FaultKind.BIT_FLIP)
    now = store.write_page(0.0, 1, make_page(9)).commit_us
    now = store.scrub(now)
    deactivate()
    assert counter_total(store, "chaos.repaired", kind="bit_flip") == 1
    assert counter_total(store, "chaos.unrepairable") == 0
    store.leader.page_cache.remove(1)
    assert bytes(store.read_page(now, 1).data) == make_page(9)


def test_unverified_decompress_never_touches_memo():
    runtime = PerfRuntime(memo_capacity_bytes=8 * MiB)
    page = make_page(3)
    payload = get_codec("lz4").compress(page)
    # Unverified: correct result, but nothing may be cached.
    assert runtime.decompress("lz4", payload, verified=False) == page
    assert runtime.memo.stats()["insertions"] == 0
    assert runtime.memo.stats()["hits"] == 0
    # Verified: now it may enter and be served from the memo.
    assert runtime.decompress("lz4", payload, verified=True) == page
    assert runtime.decompress("lz4", payload, verified=True) == page
    stats = runtime.memo.stats()
    assert stats["insertions"] == 1 and stats["hits"] == 1


def test_flipped_payload_cannot_hit_a_clean_memo_entry():
    # Content-addressed keys: even if damaged bytes reached the memo
    # lookup, they digest to a different key and miss.
    runtime = PerfRuntime(memo_capacity_bytes=8 * MiB)
    page = make_page(5)
    payload = get_codec("lz4").compress(page)
    assert runtime.decompress("lz4", payload, verified=True) == page
    corrupt = bytearray(payload)
    corrupt[10] ^= 0x40
    hits_before = runtime.memo.stats()["hits"]
    try:
        out = runtime.decompress("lz4", bytes(corrupt), verified=False)
        assert out != page  # garbage, but never the cached clean page
    except Exception:
        pass  # a decode failure is equally acceptable
    assert runtime.memo.stats()["hits"] == hits_before
