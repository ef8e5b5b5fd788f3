"""Heavy-compression archival segments (§3.2.3).

The heavy-compression write mode recompresses an existing page range as a
single large unit: read + decompress every live page in the range, merge
them into one segment, compress the segment with a high-effort zstd
configuration, and store it contiguously.  Each page's index entry then
points at the segment plus the page's position inside it.

Random access to an archived page costs a whole-segment read and
decompression (I/O amplification the paper accepts for cold data); a small
decompressed-segment buffer makes the common sequential scan cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.checksum import crc32
from repro.common.errors import ChecksumError, ReproError
from repro.common.units import DB_PAGE_SIZE, LBA_SIZE, ceil_div
from repro.compression.cost import codec_cost
from repro.compression.zstd import ZstdCodec
from repro.storage.allocator import BLOCKS_PER_EXTENT
from repro.storage.cache import LRUCache


@dataclass(frozen=True)
class SegmentMeta:
    """Placement of one archived segment."""

    segment_id: int
    pieces: Tuple[Tuple[int, int], ...]  # (start_lba, n_blocks) per piece
    compressed_len: int
    page_nos: Tuple[int, ...]
    #: CRC-32 of the compressed payload (0 = unknown, skip verification).
    checksum: int = 0

    @property
    def n_blocks(self) -> int:
        return sum(n for _, n in self.pieces)

    @property
    def stored_bytes(self) -> int:
        return self.n_blocks * LBA_SIZE


class HeavySegmentStore:
    """Allocates, persists, and serves archive segments."""

    #: High-effort codec: deeper chains + lazy matching.
    HEAVY_CODEC = ZstdCodec(max_chain=256, lazy=True)

    def __init__(self, device, allocator):
        self._device = device
        self._allocator = allocator
        self._segments: Dict[int, SegmentMeta] = {}
        self._next_id = 1
        # Decompressed-segment buffer for sequential access (§3.2.3).
        self._buffer: LRUCache = LRUCache(4 * DB_PAGE_SIZE)

    # -- write ----------------------------------------------------------------

    def archive(
        self, start_us: float, page_nos: Sequence[int], pages: Sequence[bytes]
    ) -> Tuple[SegmentMeta, float, float]:
        """Compress ``pages`` into one segment.

        Returns (meta, done_us, cpu_us) where ``cpu_us`` is the compression
        CPU the caller should charge.
        """
        if len(page_nos) != len(pages):
            raise ValueError("page_nos and pages length mismatch")
        if not pages:
            raise ValueError("cannot archive an empty range")
        for page in pages:
            if len(page) != DB_PAGE_SIZE:
                raise ValueError("archive input must be whole pages")
        segment_raw = b"".join(pages)
        payload = self.HEAVY_CODEC.compress(segment_raw)
        cpu_us = codec_cost("zstd-heavy").compress_us(len(segment_raw))

        n_blocks = ceil_div(len(payload), LBA_SIZE)
        pieces: List[Tuple[int, int]] = []
        remaining = n_blocks
        while remaining > 0:
            take = min(remaining, BLOCKS_PER_EXTENT)
            start_lba = self._allocator.allocate_blocks(take * LBA_SIZE)
            pieces.append((start_lba, take))
            remaining -= take

        padded = payload + b"\x00" * (n_blocks * LBA_SIZE - len(payload))
        now = start_us
        cursor = 0
        for start_lba, blocks in pieces:
            chunk = padded[cursor : cursor + blocks * LBA_SIZE]
            now = self._device.write(now, start_lba, chunk).done_us
            cursor += blocks * LBA_SIZE

        meta = SegmentMeta(
            self._next_id, tuple(pieces), len(payload), tuple(page_nos),
            checksum=crc32(payload),
        )
        self._segments[meta.segment_id] = meta
        self._next_id += 1
        return meta, now, cpu_us

    # -- read ----------------------------------------------------------------------

    def read_page(
        self, start_us: float, segment_id: int, page_in_segment: int
    ) -> Tuple[bytes, float, float]:
        """Return (page bytes, done_us, cpu_us) for one archived page."""
        segment_raw, done, cpu = self._segment_raw(start_us, segment_id)
        offset = page_in_segment * DB_PAGE_SIZE
        if offset + DB_PAGE_SIZE > len(segment_raw):
            raise ReproError(
                f"page {page_in_segment} outside segment {segment_id}"
            )
        return segment_raw[offset : offset + DB_PAGE_SIZE], done, cpu

    def _segment_raw(
        self, start_us: float, segment_id: int
    ) -> Tuple[bytes, float, float]:
        cached = self._buffer.get(segment_id)
        if cached is not None:
            return cached, start_us, 0.0
        meta = self._segments.get(segment_id)
        if meta is None:
            raise ReproError(f"unknown segment {segment_id}")
        blob = bytearray()
        now = start_us
        for start_lba, blocks in meta.pieces:
            completion = self._device.read(now, start_lba, blocks * LBA_SIZE)
            now = completion.done_us
            blob += completion.data
        payload = bytes(blob[: meta.compressed_len])
        if meta.checksum and crc32(payload) != meta.checksum:
            raise ChecksumError(
                f"segment {segment_id}: stored payload fails CRC verification"
            )
        segment_raw = self.HEAVY_CODEC.decompress(payload)
        cpu_us = codec_cost("zstd-heavy").decompress_us(len(segment_raw))
        self._buffer.put(segment_id, segment_raw)
        return segment_raw, now, cpu_us

    # -- maintenance -------------------------------------------------------------------

    def release(self, segment_id: int) -> None:
        meta = self._segments.pop(segment_id, None)
        if meta is None:
            return
        for start_lba, blocks in meta.pieces:
            self._allocator.free_blocks(start_lba, blocks * LBA_SIZE)
            self._device.trim(start_lba, blocks * LBA_SIZE)
        self._buffer.remove(segment_id)

    def restore(self, segments: Dict[int, SegmentMeta]) -> None:
        """Reload the segment registry from WAL recovery."""
        self._segments = dict(segments)
        self._next_id = max(self._segments, default=0) + 1
        self._buffer.clear()

    def get(self, segment_id: int) -> SegmentMeta:
        meta = self._segments.get(segment_id)
        if meta is None:
            raise ReproError(f"unknown segment {segment_id}")
        return meta
