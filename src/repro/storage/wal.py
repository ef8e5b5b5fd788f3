"""Write-ahead log for the in-memory allocator and index (§3.2.1).

The bitmap allocator and the hash-table index live in memory; their
mutations are appended here and replayed after a crash.  In production the
WAL lives on the Optane performance device; the node charges that device's
write latency per append.

Record format (little-endian)::

    u32 crc | u64 lsn | u8 type | u32 payload_len | payload

Payloads are small ``repr``-free binary encodings handled by the typed
``append_*`` helpers.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.common.checksum import crc32
from repro.common.errors import TornWALError, WALError

_HEADER = struct.Struct("<IQBI")


class WALRecordType(enum.IntEnum):
    INDEX_PUT = 1
    INDEX_REMOVE = 2
    ALLOC = 3
    FREE = 4
    CHECKPOINT = 5
    SEGMENT = 6  # heavy-compression segment placement


@dataclass(frozen=True)
class WALRecord:
    lsn: int
    type: WALRecordType
    payload: bytes

    def encode(self) -> bytes:
        # One buffer, one CRC pass over header-after-crc + payload — the
        # seed packed the header twice and concatenated a scratch copy of
        # the payload just to checksum it.
        buf = bytearray(_HEADER.size + len(self.payload))
        _HEADER.pack_into(buf, 0, 0, self.lsn, int(self.type), len(self.payload))
        buf[_HEADER.size:] = self.payload
        struct.pack_into("<I", buf, 0, crc32(memoryview(buf)[4:]))
        return bytes(buf)


class WriteAheadLog:
    """Append-only log with CRC verification."""

    def __init__(self) -> None:
        self._records: List[bytes] = []
        self._next_lsn = 1
        self.appended_bytes = 0

    # -- append ----------------------------------------------------------------

    def append(self, record_type: WALRecordType, payload: bytes) -> int:
        """Append a record; returns its LSN."""
        record = WALRecord(self._next_lsn, record_type, payload)
        encoded = record.encode()
        self._records.append(encoded)
        self.appended_bytes += len(encoded)
        self._next_lsn += 1
        return record.lsn

    #: Codec-name <-> wire-id mapping for INDEX_PUT records.
    ALGORITHMS = {None: 0, "lz4": 1, "zstd": 2}
    ALGORITHM_NAMES = {0: None, 1: "lz4", 2: "zstd"}

    def append_index_put(
        self,
        page_no: int,
        lba: int,
        n_blocks: int,
        payload_len: int,
        status: int = 1,
        algorithm: Optional[str] = "zstd",
        applied_lsn: int = 0,
        segment_id: int = 0,
        page_in_segment: int = 0,
        checksum: int = 0,
    ) -> int:
        payload = struct.pack(
            "<QQIIBBQQII",
            page_no, lba, n_blocks, payload_len,
            status, self.ALGORITHMS.get(algorithm, 0), applied_lsn,
            segment_id, page_in_segment, checksum,
        )
        return self.append(WALRecordType.INDEX_PUT, payload)

    def append_index_remove(self, page_no: int) -> int:
        return self.append(WALRecordType.INDEX_REMOVE, struct.pack("<Q", page_no))

    def append_alloc(self, lba: int, n_blocks: int) -> int:
        return self.append(WALRecordType.ALLOC, struct.pack("<QI", lba, n_blocks))

    def append_free(self, lba: int, n_blocks: int) -> int:
        return self.append(WALRecordType.FREE, struct.pack("<QI", lba, n_blocks))

    def append_checkpoint(self) -> int:
        """Append an empty checkpoint marker; replay skips it."""
        return self.append(WALRecordType.CHECKPOINT, b"")

    def append_segment(
        self, segment_id: int, compressed_len: int,
        pieces: Sequence[Tuple[int, int]], page_nos: Sequence[int],
    ) -> int:
        # The trailing checksum field is written as 0.
        payload = struct.pack("<QQIII", segment_id, compressed_len,
                              len(pieces), len(page_nos), 0)
        for lba, blocks in pieces:
            payload += struct.pack("<QI", lba, blocks)
        for page_no in page_nos:
            payload += struct.pack("<Q", page_no)
        return self.append(WALRecordType.SEGMENT, payload)

    # -- replay -------------------------------------------------------------------

    def replay(self) -> Iterator[WALRecord]:
        """Yield all retained records in LSN order, verifying CRCs.

        A *torn* record (cut short mid-append by a crash) is tolerated
        only at the tail of the log: the append was never acknowledged,
        so replay simply stops there.  The same truncation — or a CRC
        mismatch — anywhere else means a committed record was damaged
        and raises :class:`WALError`.
        """
        last = len(self._records) - 1
        for i, encoded in enumerate(self._records):
            try:
                yield self._decode(encoded)
            except TornWALError:
                if i == last:
                    return
                raise

    @staticmethod
    def _decode(encoded: bytes) -> WALRecord:
        if len(encoded) < _HEADER.size:
            raise TornWALError("truncated WAL record header")
        crc, lsn, rtype, length = _HEADER.unpack_from(encoded)
        payload = encoded[_HEADER.size : _HEADER.size + length]
        if len(payload) != length:
            raise TornWALError(f"truncated WAL payload at LSN {lsn}")
        # CRC chaining over the views: same polynomial result as
        # checksumming the concatenation, without building it.
        view = memoryview(encoded)
        expected = crc32(
            view[_HEADER.size : _HEADER.size + length],
            crc32(view[4 : _HEADER.size]),
        )
        if crc != expected:
            raise WALError(f"WAL CRC mismatch at LSN {lsn}")
        try:
            record_type = WALRecordType(rtype)
        except ValueError:
            raise WALError(f"unknown WAL record type {rtype}") from None
        return WALRecord(lsn, record_type, payload)


@dataclass(frozen=True)
class IndexPutRecord:
    page_no: int
    lba: int
    n_blocks: int
    payload_len: int
    status: int
    algorithm: Optional[str]
    applied_lsn: int
    segment_id: int
    page_in_segment: int
    checksum: int = 0


def decode_index_put(payload: bytes) -> IndexPutRecord:
    (page_no, lba, n_blocks, payload_len, status, algo_id, applied_lsn,
     segment_id, page_in_segment, checksum) = struct.unpack(
        "<QQIIBBQQII", payload
    )
    return IndexPutRecord(
        page_no, lba, n_blocks, payload_len, status,
        WriteAheadLog.ALGORITHM_NAMES.get(algo_id), applied_lsn,
        segment_id, page_in_segment, checksum,
    )


def decode_index_remove(payload: bytes) -> int:
    return struct.unpack("<Q", payload)[0]


def decode_alloc(payload: bytes) -> Tuple[int, int]:
    return struct.unpack("<QI", payload)


decode_free = decode_alloc


@dataclass(frozen=True)
class SegmentRecord:
    segment_id: int
    compressed_len: int
    pieces: Tuple[Tuple[int, int], ...]
    page_nos: Tuple[int, ...]
    checksum: int = 0


def decode_segment(payload: bytes) -> SegmentRecord:
    segment_id, compressed_len, n_pieces, n_pages, checksum = (
        struct.unpack_from("<QQIII", payload)
    )
    pos = struct.calcsize("<QQIII")
    pieces = []
    for _ in range(n_pieces):
        lba, blocks = struct.unpack_from("<QI", payload, pos)
        pos += struct.calcsize("<QI")
        pieces.append((lba, blocks))
    page_nos = []
    for _ in range(n_pages):
        page_nos.append(struct.unpack_from("<Q", payload, pos)[0])
        pos += 8
    return SegmentRecord(
        segment_id, compressed_len, tuple(pieces), tuple(page_nos), checksum
    )
