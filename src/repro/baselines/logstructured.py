"""Log-structured block storage with compression at segment compaction
(§2.2.1, Figure 3 c — Pangu-style).

Writes append into open segments.  Background compaction rewrites live
data into compressed segments; because the store compresses *segments*
rather than database pages, a 16 KB page can straddle two compressed
units, and reading it then costs two reads + two decompressions — the
misalignment penalty §2.2.1 calls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.units import DB_PAGE_SIZE, KiB, LBA_SIZE, align_up
from repro.compression.base import get_codec
from repro.compression.cost import codec_cost

#: Compressed unit: the compaction input granularity.
UNIT_BYTES = 64 * KiB
#: Open (uncompacted) segment size.
SEGMENT_BYTES = 256 * KiB


@dataclass
class _CompressedUnit:
    lba: int
    n_blocks: int
    payload_len: int
    #: Page addresses packed into this unit, in order.
    page_nos: Tuple[int, ...]


@dataclass
class LogStructuredStats:
    compactions: int = 0
    compaction_write_bytes: int = 0
    split_page_reads: int = 0


class LogStructuredStore:
    """Page-addressable log-structured store over one block device."""

    def __init__(self, device, codec: str = "zstd") -> None:
        self.device = device
        self.codec_name = codec
        self.stats = LogStructuredStats()
        # Open log: page_no -> latest raw image (not yet compacted).
        self._open: Dict[int, bytes] = {}
        self._open_bytes = 0
        # Compacted space: page_no -> (unit, offset inside decompressed unit)
        self._compacted: Dict[int, Tuple[_CompressedUnit, int]] = {}
        # unit lba -> the unit holding the following bytes of its segment.
        self._unit_next: Dict[int, Optional[_CompressedUnit]] = {}
        self._lba_cursor = 0

    # -- write path --------------------------------------------------------

    def write_page(self, start_us: float, page_no: int, data: bytes) -> float:
        if len(data) != DB_PAGE_SIZE:
            raise ReproError("log-structured store writes whole pages")
        # Append raw to the open segment (one device write of the page).
        lba = self._allocate(DB_PAGE_SIZE)
        now = self.device.write(start_us, lba, data).done_us
        self._open[page_no] = data
        self._open_bytes += DB_PAGE_SIZE
        if self._open_bytes >= SEGMENT_BYTES:
            now = self._compact(now)
        return now

    def _allocate(self, nbytes: int) -> int:
        lba = self._lba_cursor
        span = nbytes // LBA_SIZE
        capacity = self.device.spec.logical_capacity // LBA_SIZE
        if lba + span > capacity:
            raise ReproError("log-structured device full")
        self._lba_cursor += span
        return lba

    #: Per-entry segment header (entry type, page address, length, crc).
    ENTRY_HEADER_BYTES = 24

    def _compact(self, start_us: float) -> float:
        """Compress the open segment into fixed-size compressed units.

        Entries are ``header + page image`` packed back to back, so page
        images drift off 16 KB alignment and a unit boundary regularly
        falls inside a page — the page's tail then spills into the next
        unit (§2.2.1's misalignment penalty).
        """
        codec = get_codec(self.codec_name)
        cost = codec_cost(self.codec_name)
        pages = sorted(self._open.items())
        self._open = {}
        self._open_bytes = 0
        raw = bytearray()
        locations: List[Tuple[int, int]] = []  # (page_no, data offset)
        for page_no, data in pages:
            raw += page_no.to_bytes(8, "little").ljust(self.ENTRY_HEADER_BYTES, b"\x5A")
            locations.append((page_no, len(raw)))
            raw += data
        raw = bytes(raw)

        units: List[_CompressedUnit] = []
        now = start_us
        for unit_start in range(0, len(raw), UNIT_BYTES):
            chunk = raw[unit_start : unit_start + UNIT_BYTES]
            payload = codec.compress(chunk)
            now += cost.compress_us(len(chunk))
            stored = align_up(max(len(payload), 1), LBA_SIZE)
            lba = self._allocate(stored)
            padded = payload + b"\x00" * (stored - len(payload))
            now = self.device.write(now, lba, padded).done_us
            self.stats.compaction_write_bytes += stored
            units.append(
                _CompressedUnit(lba, stored // LBA_SIZE, len(payload), ())
            )
        for index, unit in enumerate(units):
            self._unit_next[unit.lba] = (
                units[index + 1] if index + 1 < len(units) else None
            )
        self.stats.compactions += 1
        for page_no, offset in locations:
            unit_index = offset // UNIT_BYTES
            self._compacted[page_no] = (
                units[unit_index], offset - unit_index * UNIT_BYTES
            )
        return now

    # -- read path -----------------------------------------------------------------

    def read_page(self, start_us: float, page_no: int) -> Tuple[bytes, float, int]:
        """Returns (data, done_us, units_read)."""
        if page_no in self._open:
            return self._open[page_no], start_us, 0
        entry = self._compacted.get(page_no)
        if entry is None:
            raise ReproError(f"page {page_no} does not exist")
        unit, offset = entry
        data, now = self._read_unit(start_us, unit)
        units = 1
        if offset + DB_PAGE_SIZE <= len(data):
            return data[offset : offset + DB_PAGE_SIZE], now, units
        # The page straddles into the next unit: second read + decompress.
        self.stats.split_page_reads += 1
        head = data[offset:]
        next_unit = self._unit_after(unit)
        if next_unit is None:
            raise ReproError(f"page {page_no} tail missing")
        tail_data, now = self._read_unit(now, next_unit)
        units += 1
        tail = tail_data[: DB_PAGE_SIZE - len(head)]
        return head + tail, now, units

    def _read_unit(self, start_us: float, unit: _CompressedUnit):
        completion = self.device.read(start_us, unit.lba, unit.n_blocks * LBA_SIZE)
        codec = get_codec(self.codec_name)
        data = codec.decompress(completion.data[: unit.payload_len])
        now = completion.done_us + codec_cost(self.codec_name).decompress_us(
            len(data)
        )
        return data, now

    def _unit_after(self, unit: _CompressedUnit) -> Optional[_CompressedUnit]:
        return self._unit_next.get(unit.lba)
