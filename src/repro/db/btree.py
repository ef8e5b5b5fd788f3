"""B+tree over 16 KB slotted pages.

Leaves hold user records; internal pages hold (separator key -> child
page_no) routing entries, with the invariant that an internal page's first
slot covers everything below its second slot's key.  Splits move the upper
half of a page into a fresh page (a full-page reorganization on both
sides, generating full-page redo like a real engine's page reorg).

Deletes are tombstones — B+trees keep reserved space rather than merging
eagerly, which is exactly the fragmentation §2.2.1 attributes to them.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.common.errors import CorruptionError
from repro.db.bufferpool import BufferPool, OpContext
from repro.db.page import Page, PageType

_CHILD = struct.Struct("<Q")


def descend(pool: BufferPool, ctx: OpContext, root_page_no: int, key: int) -> Page:
    """Walk from ``root_page_no`` to the leaf covering ``key``.

    Shared by the RW node's trees and RO nodes (which only know the root
    page number from the catalog).
    """
    page = pool.get_page(ctx, root_page_no)
    while page.page_type is PageType.INTERNAL:
        page = pool.get_page(ctx, BPlusTree._child_for(page, key))
    return page


class BPlusTree:
    """A B+tree addressed by integer keys."""

    def __init__(self, pool: BufferPool, allocate_page_no) -> None:
        """``allocate_page_no`` is a zero-argument callable handing out
        fresh page numbers, shared by the trees of one database instance
        (a counter, not a method of the instance: the tree would then
        hold the instance, which holds its trees)."""
        self._pool = pool
        self._alloc = allocate_page_no
        root = self._pool.new_page(self._alloc(), PageType.LEAF)
        self.root_page_no = root.page_no
        self.height = 1

    # -- lookup ------------------------------------------------------------

    def search(self, ctx: OpContext, key: int) -> Optional[bytes]:
        leaf = self._descend(ctx, key)
        return leaf.get(key)

    def _descend(self, ctx: OpContext, key: int) -> Page:
        return descend(self._pool, ctx, self.root_page_no, key)

    @staticmethod
    def _child_at(page: Page, index: int) -> int:
        return _CHILD.unpack(page.value_at(index))[0]

    @staticmethod
    def _child_for(page: Page, key: int) -> int:
        return BPlusTree._child_at(page, page.floor_index(key))

    def range_scan(
        self, ctx: OpContext, low: int, high: int
    ) -> List[Tuple[int, bytes]]:
        """All records with low <= key <= high (inclusive)."""
        out: List[Tuple[int, bytes]] = []
        self._scan_page(ctx, self.root_page_no, low, high, out)
        return out

    def _scan_page(
        self, ctx: OpContext, page_no: int, low: int, high: int, out: list
    ) -> None:
        page = self._pool.get_page(ctx, page_no)
        if page.page_type is PageType.LEAF:
            out.extend(page.range_items(low, high))
            return
        # Every child a key in [low, high] routes to, as ``_child_for``
        # routes it.
        for index in range(page.floor_index(low), page.floor_index(high) + 1):
            self._scan_page(ctx, self._child_at(page, index), low, high, out)

    # -- mutation -------------------------------------------------------------

    def insert(self, ctx: OpContext, key: int, value: bytes, lsn: int) -> None:
        split = self._insert_into(ctx, self.root_page_no, key, value, lsn)
        if split is not None:
            self._grow_root(split, lsn)

    def update(self, ctx: OpContext, key: int, value: bytes, lsn: int) -> bool:
        leaf = self._descend(ctx, key)
        if leaf.update(key, value, lsn):
            return True
        if leaf.get(key) is None:
            return False
        # Value grew past the page's free space: delete + reinsert.
        leaf.delete(key, lsn)
        self.insert(ctx, key, value, lsn)
        return True

    def delete(self, ctx: OpContext, key: int, lsn: int) -> bool:
        leaf = self._descend(ctx, key)
        return leaf.delete(key, lsn)

    def _insert_into(
        self, ctx: OpContext, page_no: int, key: int, value: bytes, lsn: int
    ) -> Optional[Tuple[int, int]]:
        """Recursive insert; returns (separator, new page_no) on split."""
        page = self._pool.get_page(ctx, page_no)
        if page.page_type is PageType.LEAF:
            if page.insert(key, value, lsn):
                return None
            sep, new_page_no = self._split(ctx, page, lsn)
            target = page if key < sep else self._pool.get_page(ctx, new_page_no)
            if not target.insert(key, value, lsn):
                raise CorruptionError("record does not fit a fresh page half")
            return sep, new_page_no

        child_no = self._child_for(page, key)
        child_split = self._insert_into(ctx, child_no, key, value, lsn)
        if child_split is None:
            return None
        sep, new_child = child_split
        routing = _CHILD.pack(new_child)
        if page.insert(sep, routing, lsn):
            return None
        parent_sep, new_page_no = self._split(ctx, page, lsn)
        target = page if sep < parent_sep else self._pool.get_page(ctx, new_page_no)
        if not target.insert(sep, routing, lsn):
            raise CorruptionError("routing entry does not fit after split")
        return parent_sep, new_page_no

    def _split(self, ctx: OpContext, page: Page, lsn: int) -> Tuple[int, int]:
        """Move the upper half of ``page`` to a new sibling."""
        records = sorted(page.items())
        mid = len(records) // 2
        lower, upper = records[:mid], records[mid:]
        sibling = self._pool.new_page(self._alloc(), page.page_type, ctx)
        page.rebuild(lower, lsn)
        sibling.rebuild(upper, lsn)
        return upper[0][0], sibling.page_no

    def _grow_root(self, split: Tuple[int, int], lsn: int) -> None:
        sep, new_page_no = split
        old_root_no = self.root_page_no
        new_root = self._pool.new_page(self._alloc(), PageType.INTERNAL)
        # Slot 0 routes every key below ``sep``, keys below anything the
        # old root holds included: its key is 0, -inf for unsigned keys.
        new_root.insert(0, _CHILD.pack(old_root_no), lsn)
        new_root.insert(sep, _CHILD.pack(new_page_no), lsn)
        self.root_page_no = new_root.page_no
        self.height += 1
