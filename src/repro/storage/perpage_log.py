"""Evicted-redo storage: scattered baseline vs per-page log (Opt#3, §3.3.3).

When the redo cache overflows (a lagging RO node prevents recycling),
evicted records must go to storage.  Two strategies are implemented:

:class:`ScatteredLogStore`
    The traditional approach: evicted records are appended into shared
    4 KB log blocks in arrival order.  One page's records end up sprayed
    across many blocks, so consolidating that page later needs one read
    *per distinct block* — the read amplification behind the tail latency
    of Figure 6a / Figure 15.

:class:`PerPageLogStore`
    The paper's optimization: every 16 KB page owns a dedicated sparse
    4 KB log block.  On eviction the store re-merges all of the page's
    records into that one block (an in-memory merge plus one 4 KB write),
    so consolidation always needs exactly one read.  The dedicated block
    per page costs 25% *logical* space — affordable only because the CSD
    decouples logical from physical space (an empty or compressible log
    block consumes almost no NAND).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.common.checksum import crc32
from repro.common.errors import ChecksumError, ReproError
from repro.common.units import LBA_SIZE
from repro.storage.redo import RedoRecord, decode_records, encode_records

_HEADER = struct.Struct("<QQHH")

#: Log blocks are sealed with a small integrity header so corrupted or
#: torn spill blocks are *detected* above the device instead of applying
#: garbage redo to a page: ``crc32(body) | body_len``.
_SEAL = struct.Struct("<II")

#: Encoded record bytes one sealed 4 KB log block can hold.
LOG_BLOCK_CAPACITY = LBA_SIZE - _SEAL.size


def seal_block(body: bytes, total_len: int) -> bytes:
    """Frame ``body`` with a CRC header and zero-pad to ``total_len``."""
    if _SEAL.size + len(body) > total_len:
        raise ReproError(
            f"log body of {len(body)} bytes exceeds sealed block capacity"
        )
    blob = _SEAL.pack(crc32(body), len(body)) + body
    return blob + b"\x00" * (total_len - len(blob))


def unseal_block(blob: bytes) -> bytes:
    """Verify a sealed block and return its body.

    Raises :class:`ChecksumError` on any damage — CRC mismatch, an
    impossible length field, or a block too short to carry the header.
    """
    if len(blob) < _SEAL.size:
        raise ChecksumError("log block shorter than its seal header")
    crc, length = _SEAL.unpack_from(blob)
    body = memoryview(blob)[_SEAL.size : _SEAL.size + length]
    if len(body) != length or crc32(body) != crc:
        raise ChecksumError("log block fails CRC verification")
    return bytes(body)


@dataclass
class FetchResult:
    """Outcome of retrieving a page's evicted records."""

    records: List[RedoRecord]
    reads_issued: int
    done_us: float


class ScatteredLogStore:
    """Baseline: shared append-only 4 KB log blocks."""

    #: A page's records spread across arbitrarily many shared blocks.
    page_capacity_bytes = None

    def __init__(self, device, allocator) -> None:
        self._device = device
        self._allocator = allocator
        self._open_block: List[RedoRecord] = []
        self._open_bytes = 0
        self._open_lba: int = -1
        # page_no -> set of LBAs holding at least one of its records.
        self._page_blocks: Dict[int, Set[int]] = {}
        self._block_records: Dict[int, List[RedoRecord]] = {}
        # Chunk span in blocks (large records get multi-block chunks).
        self._block_span: Dict[int, int] = {}

    def evict(self, start_us: float, records: List[RedoRecord]) -> float:
        """Append records to the open shared block; returns finish time."""
        now = start_us
        for record in records:
            if record.size_bytes > LOG_BLOCK_CAPACITY:
                # A large record (e.g. full-page redo from a reorg) gets
                # its own contiguous multi-block chunk.
                now = self._write_large(now, record)
                continue
            if self._open_lba < 0:
                self._open_lba = self._allocator.allocate_blocks(LBA_SIZE)
                self._block_records[self._open_lba] = []
                self._block_span[self._open_lba] = 1
            if self._open_bytes + record.size_bytes > LOG_BLOCK_CAPACITY:
                now = self._flush(now)
                self._open_lba = self._allocator.allocate_blocks(LBA_SIZE)
                self._block_records[self._open_lba] = []
                self._block_span[self._open_lba] = 1
            self._open_block.append(record)
            self._open_bytes += record.size_bytes
            self._block_records[self._open_lba].append(record)
            self._page_blocks.setdefault(record.page_no, set()).add(self._open_lba)
        if self._open_block:
            now = self._flush(now, keep_open=True)
        return now

    def _write_large(self, start_us: float, record: RedoRecord) -> float:
        from repro.common.units import align_up

        nbytes = align_up(_SEAL.size + record.size_bytes, LBA_SIZE)
        lba = self._allocator.allocate_blocks(nbytes)
        done = self._device.write(
            start_us, lba, seal_block(record.encode(), nbytes)
        ).done_us
        self._block_records[lba] = [record]
        self._block_span[lba] = nbytes // LBA_SIZE
        self._page_blocks.setdefault(record.page_no, set()).add(lba)
        return done

    def _flush(self, start_us: float, keep_open: bool = False) -> float:
        blob = seal_block(encode_records(self._open_block), LBA_SIZE)
        done = self._device.write(start_us, self._open_lba, blob).done_us
        if not keep_open:
            self._open_block = []
            self._open_bytes = 0
            self._open_lba = -1
        return done

    def fetch(self, start_us: float, page_no: int) -> FetchResult:
        """Read back every block containing this page's records."""
        lbas = sorted(self._page_blocks.get(page_no, ()))
        records: List[RedoRecord] = []
        now = start_us
        for lba in lbas:
            span = self._block_span.get(lba, 1)
            completion = self._device.read(now, lba, span * LBA_SIZE)
            now = completion.done_us
            parsed = decode_records(unseal_block(completion.data))
            records.extend(r for r in parsed if r.page_no == page_no)
        return FetchResult(sorted(records), len(lbas), now)

    def discard(self, page_no: int) -> None:
        """Forget a page's records (after successful consolidation)."""
        self._page_blocks.pop(page_no, None)

    def blocks_for(self, page_no: int) -> int:
        return len(self._page_blocks.get(page_no, ()))

    def pages_with_logs(self) -> List[int]:
        return list(self._page_blocks)

    def stored_bytes_for(self, page_no: int) -> int:
        """Encoded bytes of this page's records across shared blocks."""
        lbas = self._page_blocks.get(page_no, ())
        return sum(
            r.size_bytes
            for lba in lbas
            for r in self._block_records.get(lba, ())
            if r.page_no == page_no
        )

    @property
    def allocated_blocks(self) -> int:
        return len(self._block_records)


class PerPageLogStore:
    """Opt#3: one dedicated sparse 4 KB log block per page."""

    #: Hard per-page bound: everything must re-merge into one 4 KB block.
    page_capacity_bytes = LOG_BLOCK_CAPACITY

    def __init__(self, device, allocator) -> None:
        self._device = device
        self._allocator = allocator
        # page_no -> (lba, records merged so far)
        self._slots: Dict[int, int] = {}
        self._merged: Dict[int, List[RedoRecord]] = {}

    def evict(self, start_us: float, records: List[RedoRecord]) -> float:
        """Merge each page's records into its dedicated block."""
        by_page: Dict[int, List[RedoRecord]] = {}
        for record in records:
            by_page.setdefault(record.page_no, []).append(record)
        now = start_us
        for page_no, new_records in by_page.items():
            merged = sorted(self._merged.get(page_no, []) + new_records)
            blob = encode_records(merged)
            if len(blob) > LOG_BLOCK_CAPACITY:
                raise ReproError(
                    f"per-page log overflow for page {page_no}: "
                    f"{len(blob)} bytes (consolidate the page first)"
                )
            if page_no not in self._slots:
                self._slots[page_no] = self._allocator.allocate_blocks(LBA_SIZE)
            self._merged[page_no] = merged
            now = self._device.write(
                now, self._slots[page_no], seal_block(blob, LBA_SIZE)
            ).done_us
        return now

    def fetch(self, start_us: float, page_no: int) -> FetchResult:
        """All of a page's evicted records in exactly one read."""
        lba = self._slots.get(page_no)
        if lba is None:
            return FetchResult([], 0, start_us)
        completion = self._device.read(start_us, lba, LBA_SIZE)
        records = decode_records(unseal_block(completion.data))
        return FetchResult(sorted(records), 1, completion.done_us)

    def discard(self, page_no: int) -> None:
        lba = self._slots.pop(page_no, None)
        self._merged.pop(page_no, None)
        if lba is not None:
            self._allocator.free_blocks(lba, LBA_SIZE)
            self._device.trim(lba, LBA_SIZE)

    def blocks_for(self, page_no: int) -> int:
        return 1 if page_no in self._slots else 0

    def pages_with_logs(self) -> List[int]:
        return list(self._slots)

    def stored_bytes_for(self, page_no: int) -> int:
        """Encoded bytes already merged into a page's log slot."""
        return sum(r.size_bytes for r in self._merged.get(page_no, ()))

    @property
    def allocated_blocks(self) -> int:
        return len(self._slots)


