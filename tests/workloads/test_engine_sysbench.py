"""Sysbench on the shared event kernel: concurrency is real processes."""

from dataclasses import dataclass

import pytest

from repro.db.database import PolarDB
from repro.workloads.sysbench import prepare_table, run_sysbench


@pytest.fixture(scope="module")
def loaded_db():
    db = PolarDB(buffer_pool_pages=64, seed=2)
    now = prepare_table(db, rows=800, seed=2)
    return db, now


def test_engine_mode_commits_batch_under_concurrency(loaded_db):
    db, now = loaded_db
    run = run_sysbench(
        db, "update_non_index", threads=24, start_us=now, seed=3,
        key_range=800, max_transactions=120,
    )
    assert run.transactions == 120
    m = db.metrics
    batches = m.get("storage.group_commit.batches").value
    commits = m.get("storage.group_commit.commits").value
    assert commits >= 120  # every txn commits through the pipeline
    assert batches < commits  # concurrent commits shared flushes


def test_engine_mode_is_deterministic():
    def one_run():
        db = PolarDB(buffer_pool_pages=64, seed=2)
        now = prepare_table(db, rows=400, seed=2)
        return run_sysbench(
            db, "read_write", threads=16, start_us=now,
            seed=7, key_range=400, max_transactions=60,
        )

    a, b = one_run(), one_run()
    assert a.transactions == b.transactions
    assert a.elapsed_s == b.elapsed_s
    assert a.latency.mean_us == b.latency.mean_us
    assert a.latency.p95_us == b.latency.p95_us


def test_threads_queue_on_compute_cores(loaded_db):
    """Wait-time accounting: with 3× more clients than cores, statement
    CPU really queues and the resource histograms see it."""
    db, now = loaded_db
    run_sysbench(
        db, "point_select", threads=24, start_us=now, seed=5,
        key_range=800, max_transactions=200,
    )
    hist = db.metrics.get(
        "engine.resource.queue_wait_us", resource="rw-cpu", node="rw"
    )
    assert hist is not None and hist.count > 0
    assert hist.max > 0.0  # someone actually waited


def test_scaling_saturates_at_core_count(loaded_db):
    """Fig 12/15 shape: adding clients beyond the core count stops
    helping — throughput saturates instead of scaling linearly."""
    db, now = loaded_db
    tps = {}
    for threads in (1, 8, 64):
        run = run_sysbench(
            db, "point_select", threads=threads, start_us=now, seed=9,
            key_range=800, max_transactions=50 * threads,
        )
        tps[threads] = run.tps
    assert tps[8] > tps[1] * 2.0  # real concurrency speedup
    assert tps[64] < tps[8] * 8.0  # nowhere near linear past the cores


def test_sync_fallback_for_engines_without_bind_engine():
    """Baselines (no ``bind_engine``) still run on the shared kernel via
    the synchronous adapter: ops execute analytically, clients sleep
    through the completion time."""

    @dataclass
    class FakeResult:
        done_us: float

    class FakeDB:
        def __init__(self):
            self.calls = 0

        def select(self, now_us, table, key, ro_index=-1):
            self.calls += 1
            return FakeResult(now_us + 100.0)

    db = FakeDB()
    run = run_sysbench(
        db, "point_select", threads=4, start_us=0.0,
        max_transactions=20, key_range=100,
    )
    assert run.transactions == 20
    assert db.calls == 20
    # 4 clients × 5 sequential 100 µs selects each.
    assert run.elapsed_s == pytest.approx(500.0 / 1e6)
    assert run.latency.mean_us == pytest.approx(100.0)
