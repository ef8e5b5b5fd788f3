"""Multi-statement transactions: group commit and rollback."""

import pytest

from repro.common.errors import ReproError
from repro.common.units import MiB
from repro.db.database import PolarDB
from repro.db.page import Page
from repro.storage.node import NodeConfig


def make_db():
    db = PolarDB(config=NodeConfig(), volume_bytes=128 * MiB, ro_nodes=0,
                 buffer_pool_pages=64, seed=17)
    db.create_table("t")
    return db


def value_for(key, tag=b""):
    return (b"txn-row-%010d-" % key) + tag + b"x" * 60


def test_commit_makes_all_statements_visible():
    db = make_db()
    txn = db.rw.begin(0.0)
    txn.insert("t", 1, value_for(1))
    txn.insert("t", 2, value_for(2))
    txn.update("t", 1, value_for(1, b"v2"))
    done = txn.commit()
    assert done > 0
    assert db.select(done, "t", 1).value == value_for(1, b"v2")
    assert db.select(done, "t", 2).value == value_for(2)


def test_commit_is_one_replicated_redo_write():
    db = make_db()
    before = len(db.store.redo_commit_stats)
    txn = db.rw.begin(0.0)
    for key in range(5):
        txn.insert("t", key, value_for(key))
    txn.commit()
    # Five statements, exactly one group-commit round trip.
    assert len(db.store.redo_commit_stats) == before + 1


def test_rollback_restores_previous_values():
    db = make_db()
    now = db.insert(0.0, "t", 1, value_for(1)).done_us
    txn = db.rw.begin(now)
    txn.update("t", 1, value_for(1, b"doomed"))
    txn.insert("t", 2, value_for(2))
    txn.rollback()
    assert db.select(now + 1e3, "t", 1).value == value_for(1)
    assert db.select(now + 1e3, "t", 2).value is None


def test_rollback_ships_no_redo():
    db = make_db()
    now = db.insert(0.0, "t", 1, value_for(1)).done_us
    before = len(db.store.redo_commit_stats)
    txn = db.rw.begin(now)
    txn.update("t", 1, value_for(1, b"nope"))
    txn.rollback()
    assert len(db.store.redo_commit_stats) == before


def test_rollback_across_page_splits():
    """A transaction that causes splits rolls back cleanly: old keys keep
    their values, new keys vanish, and the tree still works afterwards."""
    db = make_db()
    now = 0.0
    for key in range(0, 200, 2):  # pre-existing even keys
        now = db.insert(now, "t", key, value_for(key)).done_us
    txn = db.rw.begin(now)
    for key in range(1, 399, 2):  # odd keys force splits
        txn.insert("t", key, value_for(key, b"tmp"))
    txn.rollback()
    for key in range(0, 200, 20):
        assert db.select(now + 1e4, "t", key).value == value_for(key)
    assert db.select(now + 1e4, "t", 33).value is None
    # The tree remains fully usable after the rolled-back splits.
    done = db.insert(now + 2e4, "t", 1001, value_for(1001)).done_us
    assert db.select(done, "t", 1001).value == value_for(1001)


def test_rollback_leaves_no_stale_page_view():
    """Update + insert-that-splits + delete, rolled back: every read
    returns the pre-transaction rows, and every pooled page answers as a
    fresh decode of its own bytes does (``Page.restore`` reset the view
    together with the bytes)."""
    db = make_db()
    now = 0.0
    rows = {key: value_for(key) for key in range(0, 240, 2)}
    for key, value in rows.items():
        now = db.insert(now, "t", key, value).done_us
    tree = db.rw.tree("t")
    shape = (tree.root_page_no, tree.height)
    pages_before = db.rw._next_page_no

    txn = db.rw.begin(now)
    txn.update("t", 10, value_for(10, b"grown-" * 20))
    txn.update("t", 12, value_for(12)[:20])
    key = 1
    while db.rw._next_page_no == pages_before:  # until a leaf splits
        txn.insert("t", key, value_for(key, b"tmp"))
        key += 2
    txn.delete("t", 14)
    txn.delete("t", 200)
    assert txn.select("t", 14).value is None
    txn.rollback()

    assert (tree.root_page_no, tree.height) == shape
    later = now + 1e4
    for probe in range(-1, 242):
        assert db.select(later, "t", probe).value == rows.get(probe)
    for low, high in [(0, 238), (9, 15), (13, 13), (100, 139), (230, 500)]:
        assert db.range_select(later, "t", low, high).value == b"".join(
            rows[k] for k in sorted(rows) if low <= k <= high
        )
    for page_no in range(1, db.rw._next_page_no):
        page = db.rw.pool.lookup(page_no)
        assert page is not None  # the 64-page pool holds them all
        assert Page.parse(page.to_bytes()).items() == page.items()


def test_committed_data_survives_storage_consolidation():
    db = make_db()
    txn = db.rw.begin(0.0)
    for key in range(30):
        txn.insert("t", key, value_for(key))
    done = txn.commit()
    db.checkpoint(done)  # fold txn redo into pages at the storage layer
    fresh = PolarDB(store=db.store, buffer_pool_pages=64)
    fresh.rw.trees = db.rw.trees
    assert fresh.select(done + 1e4, "t", 17).value == value_for(17)


def test_terminal_states_are_final():
    db = make_db()
    txn = db.rw.begin(0.0)
    txn.insert("t", 1, value_for(1))
    txn.commit()
    with pytest.raises(ReproError):
        txn.insert("t", 2, value_for(2))
    with pytest.raises(ReproError):
        txn.rollback()

    txn2 = db.rw.begin(1e5)
    txn2.rollback()
    with pytest.raises(ReproError):
        txn2.commit()


def test_select_inside_transaction_sees_own_writes():
    db = make_db()
    txn = db.rw.begin(0.0)
    txn.insert("t", 5, value_for(5))
    assert txn.select("t", 5).value == value_for(5)
    txn.rollback()
    assert db.select(1e4, "t", 5).value is None


def test_empty_transaction_commit_is_free():
    db = make_db()
    before = len(db.store.redo_commit_stats)
    txn = db.rw.begin(0.0)
    txn.commit()
    assert len(db.store.redo_commit_stats) == before
