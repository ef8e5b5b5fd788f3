"""Golden equivalence: the codec memo may only change wall-clock.

Each test runs the same seeded workload twice — once with the
process-wide memo swapped for a zero-capacity cache (admits nothing, so
every codec call computes), once with a fresh cache of the product's
size — and asserts byte-identical outputs and identical simulated
timestamps.  This is the contract :mod:`repro.compression.memo` hangs
off: memo hits are invisible to the simulated universe.

The memo leg also runs with a flight recorder active while the
zero-capacity leg runs without one, so the same equality is the
standing proof that observability is byte- and sim-time-neutral.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.common.units import DB_PAGE_SIZE, MiB
from repro.compression.memo import MEMO_CAPACITY_BYTES
from repro.obs import events as obs_events
from repro.obs.scenarios import SCENARIOS, metrics_digest, run_scenario
from repro.storage import store as store_mod
from repro.storage.node import NodeConfig
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore
from tests.perf.memo_swap import memo_capacity


def _both_legs(run):
    """``run()`` without and with the memo; the memo leg must have hit."""
    with memo_capacity(0) as off:
        computed = run()
    assert off.hits == 0 and len(off) == 0
    with obs_events.recording(capacity=16384):
        with memo_capacity(MEMO_CAPACITY_BYTES) as on:
            memoized = run()
    # Not vacuous: duplicate codec work was answered from the cache.
    assert on.hits > 0
    return computed, memoized


def _mixed_pages(n, seed):
    rng = np.random.default_rng(seed)
    pages = []
    for i in range(n):
        if i % 3 == 0:  # compressible: long zero runs + a stripe
            data = np.zeros(DB_PAGE_SIZE, dtype=np.uint8)
            data[:512] = rng.integers(0, 256, 512, dtype=np.uint8)
        else:
            data = rng.integers(0, 256, DB_PAGE_SIZE, dtype=np.uint8)
        pages.append(data.tobytes())
    return pages


def _store_trace():
    """One compact write/redo/checkpoint/scrub/read pass; full trace."""
    store_mod._node_counter = itertools.count()
    store = PolarStore(NodeConfig(), volume_bytes=16 * MiB, seed=11)
    trace = hashlib.sha256()
    now = 0.0
    pages = _mixed_pages(10, seed=11)
    for page_no, page in enumerate(pages):
        commit = store.write_page(now, page_no, page)
        now = commit.commit_us
        trace.update(f"w{page_no}:{now!r};".encode())
    lsn = 0
    for page_no in (0, 3, 6):
        records = []
        for k in range(3):
            lsn += 1
            records.append(RedoRecord(
                page_no=page_no, lsn=lsn, offset=128 * k,
                data=bytes([lsn]) * 64,
            ))
        now = store.write_redo(now, records)
        trace.update(f"r{page_no}:{now!r};".encode())
    now = store.checkpoint(now)
    trace.update(f"ckpt:{now!r};".encode())
    now = store.scrub(now)
    trace.update(f"scrub:{now!r};".encode())
    for page_no in range(len(pages)):
        result = store.read_page(now, page_no)
        now = result.done_us
        trace.update(f"p{page_no}:{now!r}:".encode())
        trace.update(bytes(result.data))
    # Consolidation re-compresses on every replica, and the followers'
    # calls are the ones a memo answers: read each copy back, not only
    # the leader's.
    for node in store.nodes:
        for page_no in range(len(pages)):
            trace.update(bytes(node.read_page(now, page_no).data))
    trace.update(metrics_digest(store.metrics).encode())
    return trace.hexdigest()


def test_store_pipeline_golden():
    computed, memoized = _both_legs(_store_trace)
    assert memoized == computed


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_golden(name):
    """A table row: the full stack (for sysbench: B+tree, buffer pool,
    group commit, checkpoint, scrub) is byte- and sim-time-identical
    whether codec calls compute or replay."""
    computed, memoized = _both_legs(lambda: run_scenario(name))
    assert memoized == computed
