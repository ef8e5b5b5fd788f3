"""Golden A/B equivalence: the fast path may only change wall-clock.

Each test runs the same seeded workload twice — serial reference, then
with a configured :class:`~repro.perf.runtime.PerfRuntime` — and
asserts byte-identical outputs and identical simulated timestamps.
This is the contract everything in ``repro.perf`` hangs off: memo hits
are invisible to the simulated universe.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.common.units import DB_PAGE_SIZE, MiB
from repro.perf import harness
from repro.perf.runtime import PerfRuntime, configure, deactivate
from repro.storage import store as store_mod
from repro.storage.node import NodeConfig
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore


@pytest.fixture(autouse=True)
def _clean_runtime():
    deactivate()
    yield
    deactivate()


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
    trace.update(harness._metrics_digest(store.metrics).encode())
    return trace.hexdigest()


@pytest.mark.parametrize(
    "spec", [{"memo_capacity_bytes": 8 * MiB}], ids=["memo-only"]
)
def test_store_pipeline_golden(spec):
    serial = _store_trace()
    runtime = PerfRuntime(**spec)
    configure(runtime)
    fast = _store_trace()
    stats = runtime.stats()
    deactivate()
    assert fast == serial
    # The fast path actually engaged: duplicate codec work was elided.
    assert stats["codec_calls_saved"] > 0


def test_sysbench_scenario_golden():
    """The harness's own headline scenario, quick profile: the full DB
    stack (B+tree, buffer pool, group commit, checkpoint, scrub) is
    byte- and sim-time-identical under the fast path."""
    serial = harness._timed(harness.scenario_sysbench8, quick=True)
    runtime = PerfRuntime(memo_capacity_bytes=8 * MiB)
    configure(runtime)
    fast = harness._timed(harness.scenario_sysbench8, quick=True)
    saved = runtime.codec_calls_saved
    deactivate()
    assert fast.fingerprint == serial.fingerprint
    assert fast.sim_us == serial.sim_us
    assert fast.pages == serial.pages
    assert saved > 0
