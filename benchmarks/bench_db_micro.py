"""db-layer micro-benchmarks (real wall time, not simulated).

The rows a change to ``repro.db.page`` / ``repro.db.btree`` can move, on
the table ``benchmarks/e2e``'s ``oltp_rw`` runs against: 2 000 ``sbtest``
rows, bulk-loaded in key order into a two-level B+tree that fits the
buffer pool (hit rate 1.0, so nothing below the db layer is timed except
in the ``bulk_load`` row, whose redo commits go to storage).  Writes
nothing under ``benchmarks/results/``.
"""

import random

import pytest

from repro.common.units import MiB
from repro.db.bufferpool import OpContext
from repro.db.btree import descend
from repro.db.database import PolarDB
from repro.db.page import Page, PageType
from repro.workloads.sysbench import default_value

TABLE = "sbtest"
ROWS = 2000
SCAN_KEYS = 20


def table_rows():
    rng = random.Random("rows")
    return [(key, default_value(rng, key)) for key in range(ROWS)]


def loaded_db(rows):
    db = PolarDB(volume_bytes=64 * MiB, ro_nodes=0)
    db.create_table(TABLE)
    db.rw.bulk_load(0.0, TABLE, rows)
    return db


@pytest.fixture(scope="module")
def rows():
    return table_rows()


@pytest.fixture(scope="module")
def db(rows):
    return loaded_db(rows)


def test_page_get_full_leaf(benchmark, rows):
    page = Page.new(1, PageType.LEAF)
    inserted = [key for key, value in rows if page.insert(key, value, key + 1)]
    assert not page.fits(len(rows[0][1]))
    key = inserted[len(inserted) * 2 // 3]
    assert benchmark(page.get, key) == rows[key][1]


def test_descend_and_get(benchmark, db, rows):
    tree = db.rw.tree(TABLE)
    assert tree.height == 2
    key = 1234

    def lookup():
        ctx = OpContext(0.0)
        return descend(db.rw.pool, ctx, tree.root_page_no, key).get(key)

    assert benchmark(lookup) == rows[key][1]
    db.rw.pool.drain_touched()


def test_range_scan_20_keys(benchmark, db, rows):
    tree = db.rw.tree(TABLE)
    low = 777
    out = benchmark(tree.range_scan, OpContext(0.0), low, low + SCAN_KEYS - 1)
    assert out == rows[low:low + SCAN_KEYS]
    db.rw.pool.drain_touched()


def test_update_in_place(benchmark, db, rows):
    tree = db.rw.tree(TABLE)
    key, value = rows[4321 % ROWS]
    pool = db.rw.pool

    def update():
        done = tree.update(OpContext(0.0), key, value, 1)
        # What a statement does next: without the drain the page's redo
        # ranges would pile up across rounds.
        for page in pool.drain_touched().values():
            page.drain_mods()
        return done

    assert benchmark(update)
    assert tree.search(OpContext(0.0), key) == value


def test_bulk_load_2000_rows(benchmark, rows):
    db = benchmark.pedantic(loaded_db, args=(rows,), rounds=3, warmup_rounds=1)
    assert db.select(0.0, TABLE, ROWS - 1).value == rows[-1][1]
