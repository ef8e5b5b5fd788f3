"""Page-level deduplication analysis (§6).

The paper's discussion argues deduplication helps little in RDBMSs
"since data is typically stored at the record level, making exact
page-level deduplication matches rare."  This module implements an inline
content-hash dedup index so that claim is measurable rather than asserted:
run it over database page streams and the dedup ratio comes out ~1.0,
while backup-style streams (repeated full copies) dedup heavily.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable


@dataclass
class DedupStats:
    logical_pages: int = 0
    unique_pages: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Logical/unique; 1.0 means dedup found nothing."""
        if self.unique_pages == 0:
            return 1.0
        return self.logical_pages / self.unique_pages

    @property
    def saved_fraction(self) -> float:
        if self.logical_pages == 0:
            return 0.0
        return 1.0 - self.unique_pages / self.logical_pages


class DedupIndex:
    """Inline, exact, page-granular dedup (fingerprint -> refcount)."""

    def __init__(self) -> None:
        self._refs: Dict[bytes, int] = {}
        self._page_fp: Dict[int, bytes] = {}
        self.stats = DedupStats()

    @staticmethod
    def fingerprint(page: bytes) -> bytes:
        return hashlib.sha256(page).digest()

    def write(self, page_no: int, page: bytes) -> bool:
        """Index a page; returns True when it was a duplicate."""
        fp = self.fingerprint(page)
        old = self._page_fp.get(page_no)
        if old is not None:
            self._drop(old)
            self.stats.logical_pages -= 1
        self._page_fp[page_no] = fp
        self.stats.logical_pages += 1
        if fp in self._refs:
            self._refs[fp] += 1
            return True
        self._refs[fp] = 1
        self.stats.unique_pages += 1
        return False

    def remove(self, page_no: int) -> None:
        fp = self._page_fp.pop(page_no, None)
        if fp is not None:
            self.stats.logical_pages -= 1
            self._drop(fp)

    def _drop(self, fp: bytes) -> None:
        self._refs[fp] -= 1
        if self._refs[fp] == 0:
            del self._refs[fp]
            self.stats.unique_pages -= 1


def dedup_ratio_of(pages: Iterable[bytes]) -> float:
    """The dedup ratio a page stream would achieve."""
    index = DedupIndex()
    for page_no, page in enumerate(pages):
        index.write(page_no, page)
    return index.stats.dedup_ratio
