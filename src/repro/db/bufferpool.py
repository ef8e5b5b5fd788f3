"""Compute-node buffer pool.

In the PolarDB architecture the compute node never writes pages back to
storage — storage nodes regenerate pages from redo (§2.1).  The buffer
pool therefore simply drops pages on eviction; a later miss re-fetches the
page from shared storage, which consolidates any pending redo on demand.

All timing flows through :class:`OpContext`: a page hit is free, a miss
charges the storage read (device queue + decompression CPU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.units import DB_PAGE_SIZE
from repro.db.page import Page, PageType
from repro.obs.metrics import MetricsRegistry
from repro.storage.cache import LRUCache


@dataclass
class OpContext:
    """Timing context threaded through one database operation."""

    now_us: float
    io_reads: int = 0

    def charge_cpu(self, cpu_us: float) -> None:
        self.now_us += cpu_us


class BufferPool:
    """Page cache in front of shared storage."""

    def __init__(self, capacity_pages: int, store, writeback: bool = False) -> None:
        """``store`` is anything with ``read_page(start_us, page_no)``
        returning an object with ``.data`` and ``.done_us`` — a
        :class:`~repro.storage.store.PolarStore`, a single node, or a
        baseline engine.

        ``writeback=True`` (InnoDB-style baselines) flushes dirty pages on
        eviction via ``store.write_page``; the default drops them, since
        PolarDB's storage layer regenerates pages from redo.
        """
        # Share the store's registry when it has one (PolarStore does) so
        # db-layer counters land in the same volume-wide snapshot;
        # baseline engines without one get a private registry.
        self.metrics: MetricsRegistry = getattr(store, "metrics", None) or (
            MetricsRegistry()
        )
        self._pages: LRUCache = LRUCache(
            capacity_pages * DB_PAGE_SIZE,
            sizer=lambda _: DB_PAGE_SIZE,
            metrics=self.metrics,
            metric_name="db.bufferpool",
        )
        self._store = store
        self._writeback = writeback
        # Pages handed out since the last drain; the RW node collects their
        # accumulated byte modifications into redo records after each op.
        self._touched: dict = {}

    def get_page(self, ctx: OpContext, page_no: int) -> Page:
        page = self._pages.get(page_no)
        if page is not None:
            self._touched[page_no] = page
            return page
        span = self.metrics.tracer.begin(
            "db.page_fetch", ctx.now_us, layer="db"
        )
        result = self._store.read_page(ctx.now_us, page_no)
        if span is not None:
            self.metrics.tracer.end(span, result.done_us)
        ctx.io_reads += 1
        ctx.now_us = result.done_us
        page = Page.parse(result.data)
        self._evict(ctx, self._pages.put(page_no, page))
        self._touched[page_no] = page
        return page

    def _evict(self, ctx: Optional[OpContext], evicted) -> None:
        if not self._writeback:
            return
        for page_no, page in evicted:
            if page.dirty:
                # Dirty write-back on the miss path: the page must be
                # compressed and persisted before its frame is reused.
                done = self._store.write_page(
                    ctx.now_us if ctx else 0.0, page_no, page.to_bytes()
                )
                if ctx is not None:
                    ctx.now_us = max(ctx.now_us, getattr(done, "commit_us", 0.0))
                page.dirty = False

    def new_page(
        self, page_no: int, page_type: PageType, ctx: Optional[OpContext] = None
    ) -> Page:
        """Create a fresh page directly in the pool (no storage round trip:
        the page materializes at storage via its redo)."""
        page = Page.new(page_no, page_type)
        self._evict(ctx, self._pages.put(page_no, page))
        self._touched[page_no] = page
        return page

    def drain_touched(self) -> dict:
        """Pages touched since the last drain, keyed by page_no."""
        touched = self._touched
        self._touched = {}
        return touched

    def lookup(self, page_no: int) -> Optional[Page]:
        return self._pages.peek(page_no)
