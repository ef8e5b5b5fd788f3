"""Hash-table page index (§3.2.1, §3.2.3).

Maps each uncompressed 16 KB page address to the location of its
compressed form.  Each entry keeps the three attributes the read interface
relies on (§3.2.3): compression status, the algorithm used, and — for
heavily-compressed pages — the segment identity and the page's offset
inside the decompressed segment.

The index lives in memory; every mutation is logged to the WAL by the
storage node for recovery only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple


class CompressionInfo(enum.Enum):
    """Compression status stored per index entry."""

    UNCOMPRESSED = "uncompressed"
    NORMAL = "normal"
    HEAVY = "heavy"


@dataclass(frozen=True)
class IndexEntry:
    """Location and decoding metadata for one 16 KB page."""

    status: CompressionInfo
    algorithm: Optional[str]  # a key of memo.CODECS; None when uncompressed
    lba: int                  # first 4 KB logical block
    n_blocks: int             # contiguous 4 KB blocks to read
    payload_len: int          # exact compressed (or raw) byte length
    #: Heavy compression only: id of the archive segment and the page's
    #: index within the decompressed segment.
    segment_id: Optional[int] = None
    page_in_segment: Optional[int] = None
    #: Highest redo LSN folded into this materialized image.  Recovery
    #: replays only durable redo beyond this point (idempotence).
    applied_lsn: int = 0
    #: CRC-32 of the stored payload, verified on every read so silent
    #: device corruption surfaces as :class:`PageCorruptionError` instead
    #: of garbage data.  0 means "unknown" (verification skipped).
    checksum: int = 0

    def __post_init__(self) -> None:
        if self.n_blocks <= 0:
            raise ValueError(f"n_blocks must be positive, got {self.n_blocks}")
        if self.payload_len <= 0:
            raise ValueError(f"payload_len must be positive, got {self.payload_len}")
        if self.status is CompressionInfo.HEAVY and self.segment_id is None:
            raise ValueError("heavy entries need a segment_id")
        if self.status is CompressionInfo.NORMAL and self.algorithm is None:
            raise ValueError("normal entries need an algorithm")


class PageIndex:
    """page_no -> :class:`IndexEntry` hash table."""

    def __init__(self) -> None:
        self._entries: Dict[int, IndexEntry] = {}

    def get(self, page_no: int) -> Optional[IndexEntry]:
        return self._entries.get(page_no)

    def put(self, page_no: int, entry: IndexEntry) -> Optional[IndexEntry]:
        """Insert/replace; returns the previous entry (for space frees)."""
        old = self._entries.get(page_no)
        self._entries[page_no] = entry
        return old

    def remove(self, page_no: int) -> Optional[IndexEntry]:
        return self._entries.pop(page_no, None)

    def __contains__(self, page_no: int) -> bool:
        return page_no in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[int, IndexEntry]]:
        return iter(self._entries.items())

    @property
    def logical_bytes(self) -> int:
        from repro.common.units import DB_PAGE_SIZE

        return len(self._entries) * DB_PAGE_SIZE
