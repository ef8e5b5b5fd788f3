"""16 KB slotted database page.

Layout (little-endian)::

    header (26 B):
        u16 magic | u8 page_type | u64 page_no | u64 page_lsn
        u16 n_slots | u16 free_offset | u8 reserved[3]
    heap:  records grow upward from the header
    slots: the slot directory grows downward from the page end; each slot
           is u16 offset | u16 record_len, in key order.  record_len 0 is a
           tombstone: the offset stays, so the key stays searchable and a
           reinsert revives the slot in place.

    record: u64 key | u16 value_len | value bytes

Every mutation goes through ``_write`` so the page accumulates the exact
byte ranges it changed; the RW node turns those into redo records.  That
makes storage-side consolidation byte-faithful: replaying the redo against
the old image yields a page this parser accepts.

``buf`` is the only source of truth.  Beside it the page caches a decoded
view: ``page_type`` / ``page_no``, ``free_offset``, and the slot directory
as three parallel lists (every slot's key, record offset and record length,
tombstones included).  ``_decode`` is the one place bytes become the view
and the one place an image is validated.  ``_write`` is the single
invalidation point: it drops the view and the next reader decodes again.
The DML methods know exactly what they changed, so they patch the lists
and ``_finish`` puts them back: a page is decoded once per image it is
handed (``parse`` / ``restore``), not once per statement, and a method
that raises half-way leaves the view dropped.
"""

from __future__ import annotations

import enum
import struct
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from repro.common.errors import CorruptionError, DuplicateKeyError
from repro.common.units import DB_PAGE_SIZE

_MAGIC = 0x50D8
_HEADER = struct.Struct("<HBQQHH3x")
HEADER_SIZE = _HEADER.size
_SLOT = struct.Struct("<HH")
SLOT_SIZE = _SLOT.size
_RECORD_HEADER = struct.Struct("<QH")
_RECORD_HEADER_SIZE = _RECORD_HEADER.size
_VALUE_LEN = struct.Struct("<H")


class PageType(enum.IntEnum):
    LEAF = 0
    INTERNAL = 1


_PAGE_TYPES = {int(page_type): page_type for page_type in PageType}


class Page:
    """A slotted page over a 16 KB bytearray."""

    def __init__(self, image: bytes) -> None:
        self.buf = bytearray(DB_PAGE_SIZE)
        #: Set on any mutation; write-back engines (InnoDB baseline) clear
        #: it after flushing.  The PolarDB path ignores it (storage rebuilds
        #: pages from redo).
        self.dirty = False
        self.restore(image)

    # -- construction -----------------------------------------------------

    @classmethod
    def new(cls, page_no: int, page_type: PageType) -> "Page":
        header = _HEADER.pack(
            _MAGIC, int(page_type), page_no, 0, 0, HEADER_SIZE
        )
        page = cls(header + bytes(DB_PAGE_SIZE - HEADER_SIZE))
        page._mods.append((0, header))
        return page

    @classmethod
    def parse(cls, raw: bytes) -> "Page":
        return cls(raw)

    def restore(self, image: bytes) -> None:
        """Replace the page's bytes with ``image`` (undo puts back an
        earlier one): no pending redo ranges, the view decoded afresh."""
        if len(image) != DB_PAGE_SIZE:
            raise CorruptionError(f"page must be 16 KiB, got {len(image)}")
        self.buf[:] = image
        self._mods: List[Tuple[int, bytes]] = []
        self._decode()

    # -- the decoded view ---------------------------------------------------

    def _decode(self) -> Tuple[List[int], List[int], List[int]]:
        """Decode header and slot directory from ``buf``; returns the
        (keys, offsets, lengths) of every slot.

        Raises :class:`CorruptionError` for any image this class's
        writers cannot produce: a directory or a record that leaves the
        page, a record whose two lengths disagree, two records that
        overlap or one past ``free_offset``, slot keys out of order.
        Every accepted image is one the DML methods can patch in step.
        """
        buf = self.buf
        magic, type_byte, page_no, _, n, free = _HEADER.unpack_from(buf)
        if magic != _MAGIC:
            raise CorruptionError(f"bad page magic 0x{magic:04x}")
        if type_byte not in _PAGE_TYPES:
            raise CorruptionError(f"bad page type {type_byte}")
        slots_start = DB_PAGE_SIZE - n * SLOT_SIZE
        if not HEADER_SIZE <= free <= slots_start:
            raise CorruptionError(
                f"bad page header: n_slots {n}, free_offset {free}"
            )
        # Slot i sits (i + 1) slots below the page end: read the directory
        # in one go and reverse it.
        directory = struct.unpack_from("<%dH" % (2 * n), buf, slots_start)
        offsets = list(directory[-2::-2])
        lengths = list(directory[-1::-2])
        keys: List[int] = []
        spans = []
        for index, (offset, length) in enumerate(zip(offsets, lengths)):
            end = offset + max(length, _RECORD_HEADER_SIZE)
            if offset < HEADER_SIZE or end > DB_PAGE_SIZE:
                raise CorruptionError(
                    f"slot {index}: record [{offset}, +{length}) outside "
                    "the page"
                )
            key, value_len = _RECORD_HEADER.unpack_from(buf, offset)
            if length and length != _RECORD_HEADER_SIZE + value_len:
                raise CorruptionError(
                    f"slot {index}: record_len {length} != "
                    f"{_RECORD_HEADER_SIZE} + value_len {value_len}"
                )
            if keys and key <= keys[-1]:
                raise CorruptionError(f"slot {index}: key {key} out of order")
            keys.append(key)
            spans.append((offset, end, index))
        spans.sort()  # heap order: each record ends where the next may start
        for (start, end, index), (nxt, _, other) in zip(spans, spans[1:]):
            if end > nxt:
                raise CorruptionError(
                    f"slot {index}: record [{start}, {end}) overlaps "
                    f"slot {other}"
                )
        if spans and spans[-1][1] > free:
            raise CorruptionError(
                f"slot {spans[-1][2]}: record ends past free_offset {free}"
            )
        self.page_type = _PAGE_TYPES[type_byte]
        self.page_no = page_no
        self._free_offset = free
        self._slot_keys: Optional[List[int]] = keys
        self._slot_offsets = offsets
        self._slot_lengths = lengths
        return keys, offsets, lengths

    def _view(self) -> Tuple[List[int], List[int], List[int]]:
        if self._slot_keys is None:
            return self._decode()
        return self._slot_keys, self._slot_offsets, self._slot_lengths

    def _finish(self, lsn: int, keys: List[int], free_offset: int) -> None:
        """Last step of a DML method: write the header, then put back the
        view whose lists the method patched to match what it wrote."""
        packed = _HEADER.pack(
            _MAGIC, int(self.page_type), self.page_no, lsn, len(keys),
            free_offset,
        )
        self._write(0, packed)
        self._free_offset = free_offset
        self._slot_keys = keys

    # -- header accessors ---------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self._view()[0])

    @property
    def free_offset(self) -> int:
        self._view()
        return self._free_offset

    # -- mutation plumbing ------------------------------------------------------

    def _write(self, offset: int, data: bytes) -> None:
        self.buf[offset : offset + len(data)] = data
        self._mods.append((offset, bytes(data)))
        self.dirty = True
        self._slot_keys = None  # the view is dropped until _finish

    def drain_mods(self) -> List[Tuple[int, bytes]]:
        """Byte ranges changed since the last drain (for redo generation)."""
        mods = self._mods
        self._mods = []
        return mods

    @staticmethod
    def _slot_pos(index: int) -> int:
        return DB_PAGE_SIZE - (index + 1) * SLOT_SIZE

    # -- space accounting -------------------------------------------------------------

    def free_bytes(self) -> int:
        return DB_PAGE_SIZE - self.n_slots * SLOT_SIZE - self._free_offset

    def fits(self, value_len: int) -> bool:
        need = _RECORD_HEADER_SIZE + value_len + SLOT_SIZE
        return self.free_bytes() >= need

    # -- search -------------------------------------------------------------------------

    def _live_slot(self, key: int) -> int:
        """Index of ``key``'s slot, -1 when absent or a tombstone."""
        keys, _, lengths = self._view()
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key and lengths[index]:
            return index
        return -1

    def get(self, key: int) -> Optional[bytes]:
        index = self._live_slot(key)
        return None if index < 0 else self.value_at(index)

    def keys(self) -> List[int]:
        keys, _, lengths = self._view()
        return [key for key, length in zip(keys, lengths) if length]

    def items(self) -> List[Tuple[int, bytes]]:
        return self._items(0, self.n_slots)

    def range_items(self, low: int, high: int) -> List[Tuple[int, bytes]]:
        """Live records with low <= key <= high, in key order."""
        keys = self._view()[0]
        return self._items(bisect_left(keys, low), bisect_right(keys, high))

    def _items(self, start: int, stop: int) -> List[Tuple[int, bytes]]:
        keys, _, lengths = self._view()
        value_at = self.value_at
        return [
            (keys[i], value_at(i)) for i in range(start, stop) if lengths[i]
        ]

    def floor_index(self, key: int) -> int:
        """Index of the last slot whose key is <= ``key``, 0 when there is
        none: the slot a B+tree internal page routes ``key`` through."""
        return max(bisect_right(self._view()[0], key) - 1, 0)

    def value_at(self, index: int) -> bytes:
        _, offsets, lengths = self._view()
        start = offsets[index]
        return bytes(
            self.buf[start + _RECORD_HEADER_SIZE : start + lengths[index]]
        )

    # -- DML ---------------------------------------------------------------------------------

    def insert(self, key: int, value: bytes, lsn: int) -> bool:
        """Insert a record; returns False when the page is full."""
        if not self.fits(len(value)):
            return False
        keys, offsets, lengths = self._view()
        index = bisect_left(keys, key)
        revive = index < len(keys) and keys[index] == key
        if revive and lengths[index]:
            raise DuplicateKeyError(f"duplicate key {key}")
        record = _RECORD_HEADER.pack(key, len(value)) + value
        record_offset = self._free_offset
        self._write(record_offset, record)
        if revive:
            offsets[index], lengths[index] = record_offset, len(record)
        else:
            n = len(keys)
            if index < n:
                # Shift slots [index, n) one position down (toward lower
                # addresses).
                start = self._slot_pos(n - 1)
                end = self._slot_pos(index) + SLOT_SIZE
                self._write(start - SLOT_SIZE, bytes(self.buf[start:end]))
            keys.insert(index, key)
            offsets.insert(index, record_offset)
            lengths.insert(index, len(record))
        self._write(self._slot_pos(index), _SLOT.pack(record_offset, len(record)))
        self._finish(lsn, keys, record_offset + len(record))
        return True

    def update(self, key: int, value: bytes, lsn: int) -> bool:
        """Update a record; returns False if absent or page full."""
        index = self._live_slot(key)
        if index < 0:
            return False
        keys, offsets, lengths = self._view()
        offset, free_offset = offsets[index], self._free_offset
        new_length = _RECORD_HEADER_SIZE + len(value)
        if new_length <= lengths[index]:
            # In-place: overwrite the value and shrink the slot length.
            self._write(offset + _RECORD_HEADER_SIZE, value)
            self._write(offset + 8, _VALUE_LEN.pack(len(value)))
        else:
            if self.free_bytes() < new_length:
                return False
            # Relocate to the end of the heap; the old record is garbage.
            record = _RECORD_HEADER.pack(key, len(value)) + value
            self._write(free_offset, record)
            offset = offsets[index] = free_offset
            free_offset += new_length
        lengths[index] = new_length
        self._write(self._slot_pos(index), _SLOT.pack(offset, new_length))
        self._finish(lsn, keys, free_offset)
        return True

    def delete(self, key: int, lsn: int) -> bool:
        index = self._live_slot(key)
        if index < 0:
            return False
        keys, offsets, lengths = self._view()
        # Tombstone: keep the offset (the key stays searchable), zero the
        # length.
        self._write(self._slot_pos(index), _SLOT.pack(offsets[index], 0))
        lengths[index] = 0
        self._finish(lsn, keys, self._free_offset)
        return True

    # -- bulk (splits) --------------------------------------------------------------------------

    def rebuild(self, records: List[Tuple[int, bytes]], lsn: int) -> None:
        """Replace the page's contents with ``records`` (sorted by key)."""
        fresh = bytearray(DB_PAGE_SIZE)
        offset = HEADER_SIZE
        for i, (key, value) in enumerate(records):
            record = _RECORD_HEADER.pack(key, len(value)) + value
            fresh[offset : offset + len(record)] = record
            _SLOT.pack_into(fresh, self._slot_pos(i), offset, len(record))
            offset += len(record)
        _HEADER.pack_into(
            fresh, 0, _MAGIC, int(self.page_type), self.page_no, lsn,
            len(records), offset,
        )
        # One whole-page modification (full-page redo, as real engines do
        # for reorganizations); the next reader decodes the new layout.
        self._write(0, bytes(fresh))

    def to_bytes(self) -> bytes:
        return bytes(self.buf)
