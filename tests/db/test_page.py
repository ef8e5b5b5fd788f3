"""Slotted page format."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptionError
from repro.common.units import DB_PAGE_SIZE
from repro.db.page import _HEADER, Page, PageType
from repro.storage.redo import RedoRecord, apply_records


def page_lsn(page):
    return _HEADER.unpack_from(page.buf)[3]


def test_new_page_round_trips_through_bytes():
    page = Page.new(7, PageType.LEAF)
    parsed = Page.parse(page.to_bytes())
    assert parsed.page_no == 7
    assert parsed.page_type is PageType.LEAF
    assert parsed.n_slots == 0


def test_parse_rejects_bad_input():
    with pytest.raises(CorruptionError):
        Page.parse(b"short")
    with pytest.raises(CorruptionError):
        Page.parse(bytes(DB_PAGE_SIZE))  # zero magic


def test_insert_get():
    page = Page.new(1, PageType.LEAF)
    assert page.insert(10, b"ten", lsn=1)
    assert page.insert(5, b"five", lsn=2)
    assert page.insert(20, b"twenty", lsn=3)
    assert page.get(10) == b"ten"
    assert page.get(5) == b"five"
    assert page.get(20) == b"twenty"
    assert page.get(15) is None
    assert page.keys() == [5, 10, 20]  # kept sorted
    assert page.min_key() == 5


def test_insert_duplicate_key_rejected():
    page = Page.new(1, PageType.LEAF)
    page.insert(1, b"a", 1)
    with pytest.raises(CorruptionError):
        page.insert(1, b"b", 2)


def test_insert_until_full_returns_false():
    page = Page.new(1, PageType.LEAF)
    key = 0
    while page.insert(key, b"v" * 100, key + 1):
        key += 1
    assert key > 100  # a 16 KiB page holds >100 such records
    assert not page.fits(100)


def test_update_in_place_and_grow():
    page = Page.new(1, PageType.LEAF)
    page.insert(1, b"original--", 1)
    assert page.update(1, b"short", 2)  # shrinking update, in place
    assert page.get(1) == b"short"
    assert page.update(1, b"a much longer value than before", 3)
    assert page.get(1) == b"a much longer value than before"
    assert not page.update(99, b"x", 4)  # missing key


def test_delete_and_reinsert():
    page = Page.new(1, PageType.LEAF)
    page.insert(3, b"x", 1)
    page.insert(1, b"y", 2)
    assert page.delete(3, 3)
    assert page.get(3) is None
    assert page.keys() == [1]
    assert not page.delete(3, 4)  # already gone
    # Reinsert revives the tombstone slot.
    assert page.insert(3, b"z", 5)
    assert page.get(3) == b"z"


def test_page_lsn_advances_with_mutations():
    page = Page.new(1, PageType.LEAF)
    page.insert(1, b"a", lsn=17)
    assert page_lsn(page) == 17
    page.update(1, b"b", lsn=23)
    assert page_lsn(page) == 23


def test_rebuild_replaces_contents():
    page = Page.new(1, PageType.LEAF)
    for i in range(10):
        page.insert(i, b"old%d" % i, i + 1)
    page.rebuild([(100, b"new-a"), (200, b"new-b")], lsn=50)
    assert page.keys() == [100, 200]
    assert page.get(100) == b"new-a"
    assert page.get(5) is None
    assert page_lsn(page) == 50


def test_mods_replay_to_identical_image():
    """The core redo property: applying the drained modifications to the
    original image reproduces the current image byte-for-byte."""
    page = Page.new(1, PageType.LEAF)
    page.drain_mods()
    before = page.to_bytes()
    page.insert(5, b"five", 1)
    page.insert(2, b"two", 2)
    page.update(5, b"FIVE", 3)
    page.delete(2, 4)
    records = [
        RedoRecord(i + 1, 1, offset, data)
        for i, (offset, data) in enumerate(page.drain_mods())
    ]
    assert apply_records(before, records) == page.to_bytes()


def assert_view_matches_bytes(page, probe_keys=()):
    """The live page's patched view answers exactly as a page decoded
    afresh from its bytes does."""
    fresh = Page.parse(page.to_bytes())
    assert page._view() == fresh._view()
    assert page.keys() == fresh.keys()
    assert list(page.items()) == list(fresh.items())
    assert page.n_slots == fresh.n_slots
    assert page.free_offset == fresh.free_offset
    assert page.free_bytes() == fresh.free_bytes()
    assert page_lsn(page) == page_lsn(fresh)
    if fresh.keys():
        assert page.min_key() == fresh.min_key() == fresh.keys()[0]
    for key in probe_keys:
        assert page.get(key) == fresh.get(key)
    return fresh


#: (key, value length, fill byte).  50 keys and lengths up to 3 000 bytes:
#: a run revives tombstones, relocates grown records and fills the page.
PAGE_OPS = st.lists(
    st.tuples(
        st.integers(0, 50),
        st.one_of(st.integers(1, 40), st.integers(1, 3000)),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=80,
)


@given(PAGE_OPS)
@settings(max_examples=50, deadline=None)
def test_page_behaves_like_dict(ops):
    """Property: a page with mixed insert/update/delete/rebuild mirrors a
    dict, and after every op its view equals a re-decode of its bytes."""
    page = Page.new(1, PageType.LEAF)
    model = {}
    deleted = set()
    full = 0
    for lsn, (key, length, fill) in enumerate(ops, start=1):
        value = bytes([fill]) * length
        if fill % 16 == 15:
            page.rebuild(sorted(model.items()), lsn)
            deleted.clear()  # a rebuild drops the tombstones
        elif key in model:
            if fill % 3 == 0:
                assert page.delete(key, lsn)
                del model[key]
                deleted.add(key)
            elif page.update(key, value, lsn):
                model[key] = value
            else:
                full += 1
        elif page.insert(key, value, lsn):
            model[key] = value
            deleted.discard(key)
        else:
            full += 1
        assert_view_matches_bytes(page, probe_keys=range(-1, 52))
        assert page.keys() == sorted(model)
        assert page.n_slots == len(model) + len(deleted)
    for key, value in model.items():
        assert page.get(key) == value
    for key in deleted:
        assert page.get(key) is None
    if not full:
        assert page.free_bytes() >= 0


@given(PAGE_OPS)
@settings(max_examples=50, deadline=None)
def test_mods_replay_property(ops):
    """Property: redo replay reproduces the page for arbitrary inserts,
    updates and deletes, and the replayed image decodes to the same view."""
    page = Page.new(1, PageType.LEAF)
    page.drain_mods()
    before = page.to_bytes()
    live = set()
    for lsn, (key, length, fill) in enumerate(ops, start=1):
        value = bytes([fill]) * length
        if key not in live:
            if page.insert(key, value, lsn):
                live.add(key)
        elif fill % 3 == 0:
            page.delete(key, lsn)
            live.discard(key)
        else:
            page.update(key, value, lsn)
    records = [
        RedoRecord(i + 1, 1, offset, data)
        for i, (offset, data) in enumerate(page.drain_mods())
    ]
    replayed = apply_records(before, records)
    assert replayed == page.to_bytes()
    assert assert_view_matches_bytes(page).to_bytes() == replayed


def test_view_survives_page_full_and_failed_ops():
    """Ops that return False or raise change neither bytes nor view."""
    page = Page.new(1, PageType.LEAF)
    key = 0
    while page.insert(key, b"v" * 500, key + 1):
        key += 1
    image = page.to_bytes()
    assert not page.insert(key, b"v" * 500, 99)  # full
    assert not page.update(0, b"w" * 600, 99)  # grows, no room
    assert not page.update(key, b"w", 99)  # absent
    assert not page.delete(key, 99)
    with pytest.raises(CorruptionError):
        page.insert(0, b"", 99)  # duplicate
    assert page.to_bytes() == image
    assert_view_matches_bytes(page, probe_keys=range(key + 1))


def test_range_items_bounds():
    page = Page.new(1, PageType.LEAF)
    for key in range(0, 100, 10):
        page.insert(key, b"%d" % key, key + 1)
    page.delete(30, 200)
    rows = [(key, b"%d" % key) for key in range(0, 100, 10) if key != 30]
    assert page.items() == rows
    for low in range(-5, 105):
        for high in (low - 1, low, low + 7, low + 25, 1000):
            assert page.range_items(low, high) == [
                row for row in rows if low <= row[0] <= high
            ]


def test_restore_replaces_bytes_mods_and_view():
    page = Page.new(1, PageType.LEAF)
    for key in range(20):
        page.insert(key, b"row-%d" % key, key + 1)
    page.drain_mods()
    image = page.to_bytes()
    before = page.items()
    page.update(3, b"changed and longer", 50)
    page.delete(4, 51)
    page.insert(100, b"new", 52)
    page.restore(image)
    assert page.to_bytes() == image
    assert page.drain_mods() == []
    assert page.items() == before
    assert page.get(100) is None and page.get(4) == b"row-4"
    assert_view_matches_bytes(page, probe_keys=range(-1, 102))
    with pytest.raises(CorruptionError):
        page.restore(b"short")


# --------------------------------------------------------------------- #
# hostile images                                                         #
# --------------------------------------------------------------------- #


def reference_items(image):
    """An independent, slot-at-a-time decoder (the pre-view reader): the
    live records of an image, read with no validation at all."""
    n_slots = struct.unpack_from("<H", image, 19)[0]
    items = []
    for index in range(n_slots):
        offset, length = struct.unpack_from(
            "<HH", image, DB_PAGE_SIZE - 4 * (index + 1)
        )
        if length:
            key, value_len = struct.unpack_from("<QH", image, offset)
            items.append((key, bytes(image[offset + 10:offset + 10 + value_len])))
    return items


def _real_pages():
    rng = random.Random("hostile-pages")
    leaf = Page.new(7, PageType.LEAF)
    for key in rng.sample(range(10_000), 90):
        leaf.insert(key, rng.randbytes(rng.randrange(1, 150)), 1)
    for key in rng.sample(leaf.keys(), 10):
        leaf.delete(key, 2)
    for key in rng.sample(leaf.keys(), 10):
        leaf.update(key, rng.randbytes(rng.randrange(1, 200)), 3)
    internal = Page.new(8, PageType.INTERNAL)
    for child, key in enumerate(sorted(rng.sample(range(1 << 40), 120))):
        internal.insert(key, struct.pack("<Q", child + 100), 1)
    return leaf, internal


def _metadata_positions(page):
    """Every byte of the header, the slot directory and the record
    headers: the bytes a decode reads."""
    n = page.n_slots
    positions = list(range(26))
    positions += range(DB_PAGE_SIZE - 4 * n, DB_PAGE_SIZE)
    for index in range(n):
        offset = struct.unpack_from(
            "<H", page.buf, DB_PAGE_SIZE - 4 * (index + 1)
        )[0]
        positions += range(offset, offset + 10)
    return positions


def test_hostile_images_fail_as_corruption_error_only():
    """Seeded sweep: bit-flips and 2-byte overwrites over everything a
    decode reads.  An image is either rejected with CorruptionError or
    decodes to exactly what the reference decoder reads — never another
    exception type, at parse or at any accessor."""
    rng = random.Random("hostile-sweep")
    interesting = (0, 1, 9, 10, 26, 4095, 4096, 16380, 16383, 16384, 60000, 65535)
    rejected = accepted = 0
    for real in _real_pages():
        positions = _metadata_positions(real)
        for case in range(400):
            image = bytearray(real.to_bytes())
            pos = rng.choice(positions)
            if case % 2:
                image[pos] ^= 1 << rng.randrange(8)
            else:
                pos = min(pos, DB_PAGE_SIZE - 2)
                value = (rng.choice(interesting) if rng.random() < 0.5
                         else rng.randrange(1 << 16))
                struct.pack_into("<H", image, pos, value)
            try:
                page = Page.parse(bytes(image))
                items = page.items()
                assert page.keys() == [key for key, _ in items]
                slot_keys = page._view()[0]
                ordered = slot_keys == sorted(set(slot_keys))
                for key, value in items:
                    # A search is only as good as the key order it is given.
                    assert page.get(key) == value or not ordered
                assert page.range_items(0, 1 << 64) == items or not ordered
                assert page.page_type in (PageType.LEAF, PageType.INTERNAL)
                page.min_key() if items else None
                page.free_bytes(), page.n_slots, page.free_offset
            except CorruptionError:
                rejected += 1
                continue
            accepted += 1
            assert items == reference_items(image)
            # Whatever was accepted stays in step with its bytes under DML.
            if items:
                page.update(items[0][0], b"", 9)
                page.delete(items[-1][0], 9)
            page.insert(1 << 50, b"new", 9)
            assert_view_matches_bytes(page)
    assert rejected >= 300 and accepted >= 50, (rejected, accepted)


@pytest.mark.parametrize(
    "position, fmt, value, field",
    [
        (19, "<H", 60000, "n_slots"),  # directory larger than the page
        (21, "<H", 10, "free_offset"),  # heap ends inside the header
        (21, "<H", 16384, "free_offset"),  # heap runs into the directory
        (DB_PAGE_SIZE - 4, "<H", 16380, "slot 0"),  # record past the heap
        (DB_PAGE_SIZE - 4, "<H", 3, "slot 0"),  # record inside the header
        (DB_PAGE_SIZE - 2, "<H", 11, "slot 0"),  # length != 10 + value_len
        (2, "<B", 9, "page type"),
        (0, "<H", 0x1234, "magic"),
    ],
)
def test_hostile_image_names_the_field(position, fmt, value, field):
    page = Page.new(1, PageType.LEAF)
    page.insert(5, b"five", 1)
    page.insert(9, b"nine", 2)
    image = bytearray(page.to_bytes())
    struct.pack_into(fmt, image, position, value)
    with pytest.raises(CorruptionError, match=field):
        Page.parse(bytes(image))


def test_readable_images_that_break_a_writer_invariant_are_never_patched():
    """What the eviction race leaves at storage (swapped slots, a record
    past ``free_offset``, two slots on one record) is served as the
    reference reads it, and every later write re-decodes instead of
    patching: the view cannot drift from the bytes."""
    page = Page.new(1, PageType.LEAF)
    for key in (5, 9, 12):
        page.insert(key, b"value-%02d" % key, key)
    swapped = bytearray(page.to_bytes())
    swapped[-4:], swapped[-8:-4] = swapped[-8:-4], swapped[-4:]
    stale_header = bytearray(page.to_bytes())
    # One whole record: the next insert lands exactly on key 12's.
    struct.pack_into("<H", stale_header, 21, page.free_offset - 18)
    shared = bytearray(page.to_bytes())
    shared[-8:-4] = shared[-4:]
    for image, patchable in [(swapped, True), (stale_header, False), (shared, False)]:
        hostile = Page.parse(bytes(image))
        assert hostile.items() == reference_items(image)
        assert hostile._patchable is patchable
        hostile.insert(7, b"value-07", 20)
        hostile.update(9, b"v", 21)
        hostile.delete(5, 22)
        assert_view_matches_bytes(hostile, probe_keys=range(14))
