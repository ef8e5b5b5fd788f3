"""B+tree, RW/RO nodes, and end-to-end storage consolidation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.common.units import MiB
from repro.db.btree import BPlusTree
from repro.db.bufferpool import BufferPool, OpContext
from repro.db.database import PolarDB
from repro.db.page import PageType
from repro.storage.node import NodeConfig
from repro.storage.store import PolarStore


def make_db(**kwargs):
    kwargs.setdefault("volume_bytes", 128 * MiB)
    kwargs.setdefault("ro_nodes", 1)
    db = PolarDB(**kwargs)
    db.create_table("t")
    return db


def value_for(key, size=80):
    base = b"row-%010d|" % key
    return (base * (size // len(base) + 1))[:size]


# --------------------------------------------------------------------- #
# B+tree                                                                 #
# --------------------------------------------------------------------- #


def test_insert_and_point_select():
    db = make_db()
    now = 0.0
    for key in [5, 1, 9, 3, 7]:
        now = db.insert(now, "t", key, value_for(key)).done_us
    for key in [1, 3, 5, 7, 9]:
        result = db.select(now, "t", key)
        assert result.value == value_for(key)
    assert db.select(now, "t", 2).value is None


def test_tree_splits_and_stays_correct():
    db = make_db()
    now = 0.0
    keys = list(range(500))
    random.Random(0).shuffle(keys)
    for key in keys:
        now = db.insert(now, "t", key, value_for(key)).done_us
    assert db.rw.tree("t").height >= 2  # must have split
    for key in random.Random(1).sample(keys, 50):
        assert db.select(now, "t", key).value == value_for(key)


def test_range_scan():
    db = make_db()
    now = 0.0
    for key in range(200):
        now = db.insert(now, "t", key, value_for(key)).done_us
    result = db.range_select(now, "t", 50, 59)
    assert result.value == b"".join(value_for(k) for k in range(50, 60))


def scan_tree(value_len, seed, first_key, inserts, deletes):
    """A tree of random keys with tombstones, and its live rows."""
    rng = random.Random(seed)
    pool = BufferPool(4096, store=None)  # holds every page: never reads
    page_nos = iter(range(1, 1 << 16))
    tree = BPlusTree(pool, lambda: next(page_nos))
    ctx = OpContext(0.0)
    rows = {}
    # The first key becomes the leftmost separator: with 5000, later
    # smaller keys land below it.
    for key in [first_key] + rng.sample(range(101, 10_000), inserts):
        rows[key] = b"%06d" % key + rng.randbytes(value_len)
        tree.insert(ctx, key, rows[key], 1)
    for key in rng.sample(sorted(rows), deletes):
        del rows[key]
        assert tree.delete(ctx, key, 2)
    return tree, pool, sorted(rows.items())


@pytest.mark.parametrize(
    "value_len, first_key, inserts, deletes, height",
    [(60, 5000, 1500, 500, 2), (5000, 100, 1800, 400, 3)],
)
def test_range_scan_matches_brute_force(
    value_len, first_key, inserts, deletes, height
):
    tree, pool, rows = scan_tree(
        value_len, f"scan-{height}", first_key, inserts, deletes
    )
    assert tree.height == height
    ctx = OpContext(0.0)
    keys = [key for key, _ in rows]
    # Bounds on, just inside and just outside every leaf boundary, plus
    # the ends of the key space and random pairs (some with low > high).
    edges = {0, 99, 100, 9_999, 10_000, 1 << 40}
    for page_no in range(1, 1 << 16):
        page = pool.lookup(page_no)
        if page is None:
            break
        if page.page_type is PageType.LEAF and page.keys():
            first, last = page.keys()[0], page.keys()[-1]
            edges |= {first - 1, first, first + 1, last - 1, last, last + 1}
    rng = random.Random(height)
    edges = sorted(edges)
    pairs = [(rng.choice(edges), rng.choice(edges)) for _ in range(300)]
    pairs += [(rng.randrange(10_100), rng.randrange(10_100)) for _ in range(200)]
    pairs += [(0, 1 << 40), (keys[0], keys[0]), (keys[-1] + 1, 1 << 40), (0, 99)]
    for low, high in pairs:
        expect = [row for row in rows if low <= row[0] <= high]
        assert tree.range_scan(ctx, low, high) == expect, (low, high)
    assert any(low > high for low, high in pairs)


def test_range_scan_sees_keys_below_the_leftmost_separator():
    """The root's first separator is the smallest key at the time the
    root grew; rows inserted below it later route to child 0, and a scan
    that ends below the separator must still visit that child."""
    db = make_db()
    now = 0.0
    for key in list(range(1000, 1400)) + list(range(10, 20)):
        now = db.insert(now, "t", key, value_for(key)).done_us
    assert db.rw.tree("t").height == 2
    expect = b"".join(value_for(key) for key in range(10, 20))
    assert db.range_select(now, "t", 0, 500).value == expect
    assert db.range_select(now, "t", 15, 1001).value == b"".join(
        value_for(key) for key in [*range(15, 20), 1000, 1001]
    )


def test_update_and_delete_through_tree():
    db = make_db()
    now = 0.0
    for key in range(100):
        now = db.insert(now, "t", key, value_for(key)).done_us
    now = db.update(now, "t", 42, b"updated!" * 10).done_us
    assert db.select(now, "t", 42).value == b"updated!" * 10
    now = db.delete(now, "t", 42).done_us
    assert db.select(now, "t", 42).value is None
    with pytest.raises(ReproError):
        db.delete(now, "t", 42)
    with pytest.raises(ReproError):
        db.update(now, "t", 9999, b"x")


def test_bulk_load_then_verify():
    db = make_db()
    rows = [(k, value_for(k)) for k in range(1000)]
    now = db.bulk_load(0.0, "t", rows)
    for key in (0, 123, 999):
        assert db.select(now, "t", key).value == value_for(key)


@given(st.lists(st.integers(0, 10_000), unique=True, min_size=1, max_size=300))
@settings(max_examples=20, deadline=None)
def test_tree_orders_arbitrary_keys(keys):
    db = make_db()
    now = 0.0
    for key in keys:
        now = db.insert(now, "t", key, value_for(key, 40)).done_us
    sample = keys if len(keys) <= 30 else random.Random(2).sample(keys, 30)
    for key in sample:
        assert db.select(now, "t", key).value == value_for(key, 40)


def lost_rows(runs, size):
    """Insert each run of keys in order, then the keys that do not read
    back their value."""
    db = make_db()
    now = 0.0
    keys = [key for run in runs for key in run]
    for key in keys:
        now = db.insert(now, "t", key, value_for(key, size)).done_us
    return [
        key for key in keys
        if db.select(now, "t", key).value != value_for(key, size)
    ]


def test_rows_below_the_first_separator_survive_page_sized_values():
    assert lost_rows([range(5000, 5004), range(10, 14)], 5000) == []


def test_rows_below_the_first_separator_survive_ascending_runs():
    assert lost_rows([range(7, 19), range(0, 7)], 1350) == []


@st.composite
def _ascending_runs(draw):
    """Runs of consecutive keys, each from a drawn start: a later run
    below an earlier one routes through the root's first slot."""
    runs, seen = [], set()
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, 40))
        run = [
            key for key in range(start, start + draw(st.integers(1, 16)))
            if key not in seen
        ]
        seen.update(run)
        runs.append(run)
    return runs


@given(_ascending_runs(), st.sampled_from([40, 700, 1350]))
@settings(max_examples=25, deadline=None)
def test_rows_survive_ascending_runs(runs, size):
    assert lost_rows(runs, size) == []


# --------------------------------------------------------------------- #
# Redo flow: evicted pages are rebuilt by storage                        #
# --------------------------------------------------------------------- #


def test_evicted_pages_are_reconstructed_from_redo():
    """The defining property of the architecture: the RW node never writes
    pages, yet after cache eviction the storage layer serves pages that
    contain every committed row (consolidated from redo)."""
    db = make_db(buffer_pool_pages=4)  # tiny pool forces evictions
    now = 0.0
    for key in range(300):
        now = db.insert(now, "t", key, value_for(key)).done_us
    # Fresh reads must see everything even though most pages were evicted.
    for key in random.Random(3).sample(range(300), 40):
        assert db.select(now, "t", key).value == value_for(key)


def test_ro_node_reads_through_storage():
    db = make_db(buffer_pool_pages=64)
    now = 0.0
    for key in range(200):
        now = db.insert(now, "t", key, value_for(key)).done_us
    for key in (0, 57, 199):
        result = db.select(now, "t", key, ro_index=0)
        assert result.value == value_for(key)


def test_ro_node_miss_costs_more_than_hit():
    db = make_db()
    now = 0.0
    for key in range(50):
        now = db.insert(now, "t", key, value_for(key)).done_us
    cold = db.select(now, "t", 25, ro_index=0)
    warm = db.select(cold.done_us, "t", 25, ro_index=0)
    assert cold.io_reads > 0
    assert warm.io_reads == 0
    assert warm.latency_us(cold.done_us) < cold.latency_us(now)


def test_insert_latency_includes_redo_commit():
    db = make_db()
    result = db.insert(0.0, "t", 1, value_for(1))
    # Must at least pay the execute CPU + replicated Optane write.
    assert result.latency_us(0.0) > 30.0
    assert result.redo_bytes > 0


def test_select_generates_no_redo():
    db = make_db()
    now = db.insert(0.0, "t", 1, value_for(1)).done_us
    before = db.rw._next_lsn
    db.select(now, "t", 1)
    assert db.rw._next_lsn == before


def test_compression_ratio_of_loaded_database():
    db = make_db()
    rows = [(k, value_for(k, 120)) for k in range(2000)]
    now = db.bulk_load(0.0, "t", rows)
    db.checkpoint(now)  # materialize pages at the storage layer
    assert db.compression_ratio() > 2.0
    assert db.physical_bytes < db.logical_bytes


def test_duplicate_table_rejected():
    db = make_db()
    with pytest.raises(ReproError):
        db.create_table("t")


def test_bufferpool_hit_tracking():
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB)
    pool = BufferPool(8, store)
    page = pool.new_page(1, PageType.LEAF)
    ctx = OpContext(0.0)
    assert pool.get_page(ctx, 1) is page
    assert ctx.io_reads == 0  # hit
