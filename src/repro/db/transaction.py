"""Multi-statement transactions on the RW node.

PolarDB commits a transaction by persisting its redo (including the
commit record) to shared storage (§2.1).  This module adds that grouping
on top of the per-statement engine: statements execute against the buffer
pool immediately but their redo is buffered; ``commit()`` ships it as one
replicated redo write (group commit), and ``rollback()`` restores every
touched page from byte-level before-images (undo).

Constraints kept honest:

* touched pages are pinned in the buffer pool for the transaction's life
  (uncommitted changes must not be evicted — storage could not rebuild
  them, since their redo has not shipped);
* structural B+tree changes (page splits) are redo-only as in real
  engines: rollback restores page *contents* (including parent routing
  entries), and any sibling allocated by a rolled-back split remains as
  unreferenced garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.db.bufferpool import OpContext
from repro.db.rw_node import COMMIT_CPU_US, EXECUTE_CPU_US, RWNode
from repro.storage.redo import RedoRecord


@dataclass(frozen=True)
class TxnResult:
    done_us: float
    value: Optional[bytes] = None


class Transaction:
    """One open transaction; obtain via :meth:`RWNode.begin`."""

    def __init__(self, rw: RWNode, start_us: float) -> None:
        self.rw = rw
        self.now_us = start_us
        self._pending: List[RedoRecord] = []
        self._touched: Dict[int, object] = {}
        self._tree_snapshots: Dict[str, Tuple[int, int]] = {}
        self._state = "active"

    # -- statement execution -------------------------------------------------

    def _check_active(self) -> None:
        if self._state != "active":
            raise ReproError(f"transaction is {self._state}")

    def _snapshot_tree(self, table: str) -> None:
        if table not in self._tree_snapshots:
            tree = self.rw.tree(table)
            self._tree_snapshots[table] = (tree.root_page_no, tree.height)

    def _absorb(self, ctx: OpContext) -> None:
        """Collect redo + pin pages after one statement."""
        for page_no, page in self.rw.pool.drain_touched().items():
            for offset, data in page.drain_mods():
                self._pending.append(
                    RedoRecord(self.rw._next_lsn, page_no, offset, data)
                )
                self.rw._next_lsn += 1
            # NOTE: drain_mods cleared the page's undo; capture-after-drain
            # would lose it, so Transaction must NOT mix with autocommit
            # statements on the same pages mid-flight.  We therefore keep
            # our own before-images at first touch instead.
        self.now_us = ctx.now_us

    def _remember_images(self, table: str, key_hint: int) -> None:
        """Snapshot images of pages this statement is about to touch."""
        # Conservative: snapshot the root-to-leaf path for the key.
        ctx = OpContext(self.now_us)
        from repro.db.btree import descend

        tree = self.rw.tree(table)
        page = self.rw.pool.get_page(ctx, tree.root_page_no)
        path = [page]
        from repro.db.page import PageType

        while page.page_type is PageType.INTERNAL:
            from repro.db.btree import BPlusTree

            page = self.rw.pool.get_page(
                ctx, BPlusTree._child_for(page, key_hint)
            )
            path.append(page)
        self.now_us = ctx.now_us
        self.rw.pool.drain_touched()
        for node_page in path:
            if node_page.page_no not in self._touched:
                self._touched[node_page.page_no] = node_page.to_bytes()
                self.rw.pool.pin(node_page.page_no)

    def insert(self, table: str, key: int, value: bytes) -> TxnResult:
        self._check_active()
        self._snapshot_tree(table)
        self._remember_images(table, key)
        ctx = OpContext(self.now_us + EXECUTE_CPU_US)
        self.rw.tree(table).insert(ctx, key, value, self.rw._next_lsn)
        self._pin_new_pages(ctx)
        self._absorb(ctx)
        return TxnResult(self.now_us)

    def update(self, table: str, key: int, value: bytes) -> TxnResult:
        self._check_active()
        self._snapshot_tree(table)
        self._remember_images(table, key)
        ctx = OpContext(self.now_us + EXECUTE_CPU_US)
        if not self.rw.tree(table).update(ctx, key, value, self.rw._next_lsn):
            self._absorb(ctx)
            raise ReproError(f"update of missing key {key}")
        self._pin_new_pages(ctx)
        self._absorb(ctx)
        return TxnResult(self.now_us)

    def delete(self, table: str, key: int) -> TxnResult:
        self._check_active()
        self._snapshot_tree(table)
        self._remember_images(table, key)
        ctx = OpContext(self.now_us + EXECUTE_CPU_US)
        if not self.rw.tree(table).delete(ctx, key, self.rw._next_lsn):
            self._absorb(ctx)
            raise ReproError(f"delete of missing key {key}")
        self._absorb(ctx)
        return TxnResult(self.now_us)

    def select(self, table: str, key: int) -> TxnResult:
        self._check_active()
        ctx = OpContext(self.now_us + EXECUTE_CPU_US)
        value = self.rw.tree(table).search(ctx, key)
        self.rw.pool.drain_touched()
        self.now_us = ctx.now_us
        return TxnResult(self.now_us, value)

    def _pin_new_pages(self, ctx: OpContext) -> None:
        """Pin pages that first appeared during the statement.

        Such pages are split siblings or new roots: after a rollback the
        restored routing entries no longer reference them, so their
        content is irrelevant (``None`` marks "no image to restore") —
        exactly how real engines treat structural changes as redo-only.
        """
        for page_no in self.rw.pool._touched:
            if page_no not in self._touched:
                self._touched[page_no] = None
                self.rw.pool.pin(page_no)

    # -- terminal operations -----------------------------------------------------

    def commit(self) -> float:
        """Group-commit: one replicated redo write for the whole txn."""
        self._check_active()
        self._state = "committed"
        done = self.now_us
        if self._pending:
            done = self.rw.store.write_redo(
                self.now_us + COMMIT_CPU_US, self._pending
            )
        self._release_pins()
        self.now_us = done
        return done

    def rollback(self) -> float:
        """Restore every touched page to its transaction-start image."""
        self._check_active()
        self._state = "rolled-back"
        for page_no, image in self._touched.items():
            if image is None:
                continue  # page born in this txn: unreferenced after undo
            page = self.rw.pool.lookup(page_no)
            if page is not None:
                page.restore(image)
        for table, (root, height) in self._tree_snapshots.items():
            tree = self.rw.tree(table)
            tree.root_page_no = root
            tree.height = height
        self._pending = []
        self.rw.pool.drain_touched()
        self._release_pins()
        return self.now_us

    def _release_pins(self) -> None:
        for page_no in self._touched:
            self.rw.pool.unpin(page_no)
