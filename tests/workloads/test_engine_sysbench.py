"""Sysbench on the shared event kernel: concurrency is real processes."""

import random
from dataclasses import dataclass

import pytest

from repro.common.errors import ReproError
from repro.db.database import PolarDB
from repro.db.btree import BPlusTree
from repro.db.page import Page, PageType
from repro.engine.core import Engine
from repro.workloads.sysbench import (
    TABLE,
    _TxnContext,
    prepare_table,
    run_sysbench,
)


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


@pytest.mark.parametrize("seed", [0, 11])
def test_concurrent_writers_on_a_tiny_pool_leave_sound_pages(seed):
    """Race regression: eight clients on a 4-page pool evict each other's
    pages while their redo is in flight and rewrite the same rows.  No
    statement fails (nothing in the workload catches one), and every
    page storage holds parses under the strict decoder."""
    db = PolarDB(buffer_pool_pages=4, ro_nodes=0, seed=seed)
    now = prepare_table(db, rows=300, seed=seed)
    run = run_sysbench(
        db, "read_write", threads=8, start_us=now, seed=seed,
        key_range=300, max_transactions=60,
    )
    assert run.transactions == 60
    end = now + run.elapsed_s * 1e6
    # Walk the tree as storage holds it; its pages are numbered from 1
    # with no gap, so the walk reaches every page the table allocated.
    page_nos, todo = [], [db.rw.tree(TABLE).root_page_no]
    while todo:
        page_no = todo.pop()
        page_nos.append(page_no)
        page = Page.parse(db.store.read_page(end, page_no).data)
        if page.page_type is not PageType.LEAF:
            todo += [BPlusTree._child_at(page, index)
                     for index in range(len(page.keys()))]
    assert sorted(page_nos) == list(range(1, len(page_nos) + 1))
    assert len(page_nos) > 4  # the table does not fit the pool


def _one_key_context(db, engine, use_procs):
    return _TxnContext(
        db=db, table=TABLE, rng=random.Random(1), sampler=None,
        fresh_key=None, engine=engine, use_procs=use_procs,
    )


def test_row_lock_spans_the_delete_and_insert_of_an_index_update():
    """Two clients on one key, engine path: an update that started while
    the other client's delete + insert was in flight waits for the pair
    instead of finding the row missing."""
    db = PolarDB(buffer_pool_pages=64, ro_nodes=0, seed=4)
    now = prepare_table(db, rows=50, seed=4)
    engine = Engine(start_us=now)
    db.bind_engine(engine)
    ctx = _one_key_context(db, engine, use_procs=True)
    procs = [
        engine.spawn(ctx.update_index(7), name="a"),
        engine.spawn(ctx.update_non_index(7), name="b"),
        engine.spawn(ctx.update_index(7), name="c"),
        engine.spawn(ctx.update_non_index(7), name="d"),
    ]
    engine.run_until_complete(procs)
    assert db.select(engine.now_us, TABLE, 7).value is not None
    assert ctx._row_locks == {}


class RowDB:
    """A synchronous engine that keeps rows and fails a statement on a
    missing or duplicate key; every statement takes 100 µs."""

    def __init__(self):
        self.rows = {7}
        self.log = []

    def _run(self, now_us, name, key, present):
        if (key in self.rows) != present:
            raise ReproError(f"{name} of key {key}")
        self.log.append((now_us, name))
        return now_us + 100.0

    def delete(self, now_us, table, key):
        done = self._run(now_us, "delete", key, True)
        self.rows.discard(key)
        return done

    def insert(self, now_us, table, key, value):
        done = self._run(now_us, "insert", key, False)
        self.rows.add(key)
        return done

    def update(self, now_us, table, key, value):
        return self._run(now_us, "update", key, True)


def test_row_lock_orders_one_key_on_the_synchronous_adapter():
    db = RowDB()
    engine = Engine()
    ctx = _one_key_context(db, engine, use_procs=False)
    procs = [
        engine.spawn(ctx.update_index(7), name="a"),
        engine.spawn(ctx.update_non_index(7), name="b"),
        engine.spawn(ctx.update_index(7), name="c"),
    ]
    engine.run_until_complete(procs)
    assert db.log == [
        (0.0, "delete"), (100.0, "insert"), (200.0, "update"),
        (300.0, "delete"), (400.0, "insert"),
    ]
