"""Injected corruption is detected and repaired the same with the memo.

The codec memo sits on the write path only (the read path calls the
codec directly), so a damaged stored payload can neither be served from
it nor enter it.  These tests pin the consequence under real fault
injection: a corrupted copy takes the detect-and-repair path exactly as
it does against a zero-capacity cache, where every codec call computes.
"""

import numpy as np
import pytest

from repro.api.config import NodeConfig
from repro.chaos.plan import FaultKind, FaultPlan, FaultRule
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.compression.memo import MEMO_CAPACITY_BYTES
from repro.storage.store import PolarStore
from tests.perf.memo_swap import memo_capacity


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
    result = store.read_page(now, 1)
    return store, result


@pytest.mark.parametrize(
    "kind", [FaultKind.BIT_FLIP, FaultKind.TORN_WRITE]
)
def test_corrupted_read_repairs_identically_with_memo(kind):
    # Reference: every codec call computes.
    with memo_capacity(0):
        serial_store, serial_result = _faulted_read(kind)
    # Same schedule with the memo at the product's size.
    with memo_capacity(MEMO_CAPACITY_BYTES):
        fast_store, fast_result = _faulted_read(kind)
    assert bytes(fast_result.data) == make_page(7)
    assert bytes(fast_result.data) == bytes(serial_result.data)
    assert fast_result.done_us == serial_result.done_us
    for name in ("chaos.detected", "chaos.repaired", "chaos.unrepairable"):
        assert counter_total(fast_store, name) == \
            counter_total(serial_store, name), name
    assert counter_total(fast_store, "chaos.detected") >= 1


def test_scrub_with_memo_repairs_corrupt_copies():
    # The replicas' device writes and the repair go through bytes the
    # memo has already seen; the bad copy must still be overwritten.
    with memo_capacity(MEMO_CAPACITY_BYTES) as cache:
        store = make_store()
        arm(store, FaultKind.BIT_FLIP)
        now = store.write_page(0.0, 1, make_page(9)).commit_us
        now = store.scrub(now)
    assert cache.hits > 0
    assert counter_total(store, "chaos.repaired", kind="bit_flip") == 1
    assert counter_total(store, "chaos.unrepairable") == 0
    assert bytes(store.read_page(now, 1).data) == make_page(9)
