"""16 KB slotted database page.

Layout (little-endian)::

    header (26 B):
        u16 magic | u8 page_type | u64 page_no | u64 page_lsn
        u16 n_slots | u16 free_offset | u8 reserved[3]
    heap:  records grow upward from the header
    slots: the slot directory grows downward from the page end;
           each slot is u16 offset | u16 record_len (offset 0 = deleted)

    record: u64 key | u16 value_len | value bytes

Every mutation goes through ``_write`` so the page accumulates the exact
byte ranges it changed; the RW node turns those into redo records.  That
makes storage-side consolidation byte-faithful: replaying the redo against
the old image yields a page this parser accepts.
"""

from __future__ import annotations

import enum
import struct
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import CorruptionError
from repro.common.units import DB_PAGE_SIZE

_MAGIC = 0x50D8
_HEADER = struct.Struct("<HBQQHH3x")
HEADER_SIZE = _HEADER.size
_SLOT = struct.Struct("<HH")
SLOT_SIZE = _SLOT.size
_RECORD_HEADER = struct.Struct("<QH")


class PageType(enum.IntEnum):
    LEAF = 0
    INTERNAL = 1


class Page:
    """A slotted page over a 16 KB bytearray."""

    def __init__(self, buf: Optional[bytearray] = None) -> None:
        if buf is None:
            raise ValueError("use Page.new() or Page.parse()")
        self.buf = buf
        self._mods: List[Tuple[int, bytes]] = []
        #: Set on any mutation; write-back engines (InnoDB baseline) clear
        #: it after flushing.  The PolarDB path ignores it (storage rebuilds
        #: pages from redo).
        self.dirty = False

    # -- construction -----------------------------------------------------

    @classmethod
    def new(cls, page_no: int, page_type: PageType) -> "Page":
        buf = bytearray(DB_PAGE_SIZE)
        _HEADER.pack_into(
            buf, 0, _MAGIC, int(page_type), page_no, 0, 0, HEADER_SIZE
        )
        page = cls(buf)
        page._mods.append((0, bytes(buf[:HEADER_SIZE])))
        return page

    @classmethod
    def parse(cls, raw: bytes) -> "Page":
        if len(raw) != DB_PAGE_SIZE:
            raise CorruptionError(f"page must be 16 KiB, got {len(raw)}")
        page = cls(bytearray(raw))
        if page.magic != _MAGIC:
            raise CorruptionError(f"bad page magic 0x{page.magic:04x}")
        return page

    # -- header accessors ---------------------------------------------------

    @property
    def magic(self) -> int:
        return _HEADER.unpack_from(self.buf)[0]

    @property
    def page_type(self) -> PageType:
        return PageType(_HEADER.unpack_from(self.buf)[1])

    @property
    def page_no(self) -> int:
        return _HEADER.unpack_from(self.buf)[2]

    @property
    def page_lsn(self) -> int:
        return _HEADER.unpack_from(self.buf)[3]

    @property
    def n_slots(self) -> int:
        return _HEADER.unpack_from(self.buf)[4]

    @property
    def free_offset(self) -> int:
        return _HEADER.unpack_from(self.buf)[5]

    def _write_header(
        self, page_lsn: int, n_slots: int, free_offset: int
    ) -> None:
        packed = _HEADER.pack(
            _MAGIC, int(self.page_type), self.page_no, page_lsn, n_slots,
            free_offset,
        )
        self._write(0, packed)

    # -- mutation plumbing ------------------------------------------------------

    def _write(self, offset: int, data: bytes) -> None:
        self.buf[offset : offset + len(data)] = data
        self._mods.append((offset, bytes(data)))
        self.dirty = True

    def drain_mods(self) -> List[Tuple[int, bytes]]:
        """Byte ranges changed since the last drain (for redo generation)."""
        mods = self._mods
        self._mods = []
        return mods

    # -- slot directory ------------------------------------------------------------

    def _slot_pos(self, index: int) -> int:
        return DB_PAGE_SIZE - (index + 1) * SLOT_SIZE

    def _read_slot(self, index: int) -> Tuple[int, int]:
        return _SLOT.unpack_from(self.buf, self._slot_pos(index))

    def _slot_key(self, index: int) -> int:
        offset, _ = self._read_slot(index)
        return _RECORD_HEADER.unpack_from(self.buf, offset)[0]

    def _record_at(self, index: int) -> Tuple[int, bytes]:
        offset, length = self._read_slot(index)
        key, value_len = _RECORD_HEADER.unpack_from(self.buf, offset)
        start = offset + _RECORD_HEADER.size
        return key, bytes(self.buf[start : start + value_len])

    # -- space accounting -------------------------------------------------------------

    @property
    def slots_start(self) -> int:
        return DB_PAGE_SIZE - self.n_slots * SLOT_SIZE

    def free_bytes(self) -> int:
        return self.slots_start - self.free_offset

    def fits(self, value_len: int) -> bool:
        need = _RECORD_HEADER.size + value_len + SLOT_SIZE
        return self.free_bytes() >= need

    def fill_fraction(self) -> float:
        return 1.0 - self.free_bytes() / DB_PAGE_SIZE

    # -- search -------------------------------------------------------------------------

    def _bisect(self, key: int) -> Tuple[int, bool]:
        """(index, found): index of key or insertion point among slots."""
        lo, hi = 0, self.n_slots
        while lo < hi:
            mid = (lo + hi) // 2
            mid_key = self._slot_key(mid)
            if mid_key == key:
                return mid, True
            if mid_key < key:
                lo = mid + 1
            else:
                hi = mid
        return lo, False

    def get(self, key: int) -> Optional[bytes]:
        index, found = self._bisect(key)
        if not found:
            return None
        if self._read_slot(index)[1] == 0:
            return None  # tombstone
        return self._record_at(index)[1]

    def keys(self) -> List[int]:
        return [
            self._slot_key(i)
            for i in range(self.n_slots)
            if self._read_slot(i)[1] != 0
        ]

    def items(self) -> Iterator[Tuple[int, bytes]]:
        for i in range(self.n_slots):
            if self._read_slot(i)[1] != 0:
                yield self._record_at(i)

    def min_key(self) -> int:
        for i in range(self.n_slots):
            if self._read_slot(i)[1] != 0:
                return self._slot_key(i)
        raise CorruptionError("empty page has no min key")

    # -- DML ---------------------------------------------------------------------------------

    def insert(self, key: int, value: bytes, lsn: int) -> bool:
        """Insert a record; returns False when the page is full."""
        if not self.fits(len(value)):
            return False
        index, found = self._bisect(key)
        if found and self._read_slot(index)[1] != 0:
            raise CorruptionError(f"duplicate key {key}")
        record = _RECORD_HEADER.pack(key, len(value)) + value
        record_offset = self.free_offset
        self._write(record_offset, record)
        if found:
            # Revive the tombstone slot in place.
            self._write(
                self._slot_pos(index), _SLOT.pack(record_offset, len(record))
            )
            self._write_header(lsn, self.n_slots, record_offset + len(record))
            return True
        # Shift slots [index, n) one position down (toward lower addresses).
        n = self.n_slots
        if index < n:
            start = self._slot_pos(n - 1)
            end = self._slot_pos(index) + SLOT_SIZE
            shifted = bytes(self.buf[start:end])
            self._write(start - SLOT_SIZE, shifted)
        self._write(self._slot_pos(index), _SLOT.pack(record_offset, len(record)))
        self._write_header(lsn, n + 1, record_offset + len(record))
        return True

    def update(self, key: int, value: bytes, lsn: int) -> bool:
        """Update a record; returns False if absent or page full."""
        index, found = self._bisect(key)
        if not found or self._read_slot(index)[1] == 0:
            return False
        offset, length = self._read_slot(index)
        old_value_len = length - _RECORD_HEADER.size
        if len(value) <= old_value_len:
            # In-place: overwrite the value and shrink the slot length.
            self._write(offset + _RECORD_HEADER.size, value)
            self._write(offset + 8, struct.pack("<H", len(value)))
            self._write(
                self._slot_pos(index),
                _SLOT.pack(offset, _RECORD_HEADER.size + len(value)),
            )
            self._write_header(lsn, self.n_slots, self.free_offset)
            return True
        if self.free_bytes() < _RECORD_HEADER.size + len(value):
            return False
        record = _RECORD_HEADER.pack(key, len(value)) + value
        record_offset = self.free_offset
        self._write(record_offset, record)
        self._write(self._slot_pos(index), _SLOT.pack(record_offset, len(record)))
        self._write_header(lsn, self.n_slots, record_offset + len(record))
        return True

    def delete(self, key: int, lsn: int) -> bool:
        index, found = self._bisect(key)
        if not found or self._read_slot(index)[1] == 0:
            return False
        offset, _ = self._read_slot(index)
        # Tombstone: keep the offset (the key stays searchable), zero the
        # length.
        self._write(self._slot_pos(index), _SLOT.pack(offset, 0))
        self._write_header(lsn, self.n_slots, self.free_offset)
        return True

    # -- bulk (splits) --------------------------------------------------------------------------

    def rebuild(self, records: List[Tuple[int, bytes]], lsn: int) -> None:
        """Replace the page's contents with ``records`` (sorted by key)."""
        fresh = bytearray(DB_PAGE_SIZE)
        _HEADER.pack_into(
            fresh, 0, _MAGIC, int(self.page_type), self.page_no, lsn,
            0, HEADER_SIZE,
        )
        offset = HEADER_SIZE
        for i, (key, value) in enumerate(records):
            record = _RECORD_HEADER.pack(key, len(value)) + value
            fresh[offset : offset + len(record)] = record
            _SLOT.pack_into(fresh, DB_PAGE_SIZE - (i + 1) * SLOT_SIZE, offset,
                            len(record))
            offset += len(record)
        _HEADER.pack_into(
            fresh, 0, _MAGIC, int(self.page_type), self.page_no, lsn,
            len(records), offset,
        )
        # One whole-page modification (full-page redo, as real engines do
        # for reorganizations).
        self._write(0, bytes(fresh))

    def to_bytes(self) -> bytes:
        return bytes(self.buf)
