"""The read-write compute node.

Executes DML against B+trees held in its buffer pool, converts the exact
byte modifications of touched pages into redo records, and commits each
statement by replicating that redo to shared storage (the transaction-
commit critical path, §3.3).  Dirty pages are never written back — storage
regenerates them from redo.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.ops import OpResult
from repro.engine.resources import Resource
from repro.db.btree import BPlusTree
from repro.db.bufferpool import BufferPool, OpContext
from repro.storage.redo import RedoRecord

#: CPU cost of parsing + executing one simple statement (µs).
EXECUTE_CPU_US = 18.0
#: Extra CPU at commit (txn bookkeeping, §2.1 log record of commit).
COMMIT_CPU_US = 4.0
#: Rows per redo commit during a bulk load.
BULK_REDO_BATCH = 64


class RWNode:
    """The single read-write node of a PolarDB instance."""

    def __init__(self, store, buffer_pool_pages: int = 256) -> None:
        self.store = store
        self.pool = BufferPool(buffer_pool_pages, store)
        self.trees: Dict[str, BPlusTree] = {}
        self._page_nos = itertools.count(1).__next__
        self._next_lsn = 1
        #: The compute instance's cores (the paper evaluates an 8-core
        #: instance); statement CPU queues here under high concurrency.
        self.cpu = Resource("rw-cpu", servers=8)
        self._sim_engine = None

    def bind_engine(self, engine) -> None:
        """Attach the core pool to a shared event kernel: statement CPU
        becomes a real FIFO queue and its wait times feed the volume
        registry."""
        self._sim_engine = engine
        self.cpu.bind_engine(engine)
        registry = getattr(self.store, "metrics", None)
        if registry is not None:
            self.cpu.bind_metrics(registry, node="rw")

    def _start_statement(self, start_us: float) -> OpContext:
        return OpContext(self.cpu.serve(start_us, EXECUTE_CPU_US))

    # -- catalog ------------------------------------------------------------

    def create_table(self, name: str) -> BPlusTree:
        if name in self.trees:
            raise ReproError(f"table {name!r} already exists")
        tree = BPlusTree(self.pool, self._page_nos)
        self.trees[name] = tree
        # The catalog change itself generates redo.
        return tree

    def tree(self, name: str) -> BPlusTree:
        if name not in self.trees:
            raise ReproError(f"no such table {name!r}")
        return self.trees[name]

    # -- redo plumbing ---------------------------------------------------------

    def _collect_redo(self, touched: dict) -> List[RedoRecord]:
        records: List[RedoRecord] = []
        for page_no, page in touched.items():
            for offset, data in page.drain_mods():
                records.append(RedoRecord(self._next_lsn, page_no, offset, data))
                self._next_lsn += 1
        return records

    def _commit(self, ctx: OpContext) -> Tuple[float, int]:
        """Persist this statement's redo; returns (commit time, bytes)."""
        records = self._collect_redo(self.pool.drain_touched())
        if not records:
            return ctx.now_us, 0
        ctx.now_us = self.cpu.serve(ctx.now_us, COMMIT_CPU_US)
        commit_us = self.store.write_redo(ctx.now_us, records)
        return commit_us, sum(r.size_bytes for r in records)

    # -- statement bodies (shared by the sync and engine-native paths) -------

    # Each DML statement is one body closure over (table, key, ...); the
    # two execution paths — analytic `_statement` and engine-native
    # `_statement_proc` — differ only in how CPU and commit time are
    # charged, never in what the statement does.

    def _insert_body(self, table: str, key: int, value: bytes):
        def body(ctx: OpContext):
            self.tree(table).insert(ctx, key, value, self._next_lsn)

        return body

    def _update_body(self, table: str, key: int, value: bytes):
        def body(ctx: OpContext):
            if not self.tree(table).update(ctx, key, value, self._next_lsn):
                raise ReproError(f"update of missing key {key}")

        return body

    def _delete_body(self, table: str, key: int):
        def body(ctx: OpContext):
            if not self.tree(table).delete(ctx, key, self._next_lsn):
                raise ReproError(f"delete of missing key {key}")

        return body

    def _select_body(self, table: str, key: int):
        return lambda ctx: self.tree(table).search(ctx, key)

    def _range_select_body(self, table: str, low: int, high: int):
        def body(ctx: OpContext):
            rows = self.tree(table).range_scan(ctx, low, high)
            return b"".join(value for _, value in rows)

        return body

    # -- DML ----------------------------------------------------------------------

    def _statement(self, start_us: float, body, read_only: bool = False) -> OpResult:
        """One statement on the analytic path (same body closures as
        :meth:`_statement_proc`, CPU charged via ``Resource.serve``)."""
        ctx = self._start_statement(start_us)
        value = body(ctx)
        if read_only:
            self.pool.drain_touched()  # reads generate no redo
            return OpResult(ctx.now_us, ctx.io_reads, 0, value)
        done, redo_bytes = self._commit(ctx)
        return OpResult(done, ctx.io_reads, redo_bytes, value)

    def insert(self, start_us: float, table: str, key: int, value: bytes) -> OpResult:
        return self._statement(start_us, self._insert_body(table, key, value))

    def update(self, start_us: float, table: str, key: int, value: bytes) -> OpResult:
        return self._statement(start_us, self._update_body(table, key, value))

    def delete(self, start_us: float, table: str, key: int) -> OpResult:
        return self._statement(start_us, self._delete_body(table, key))

    def select(self, start_us: float, table: str, key: int) -> OpResult:
        return self._statement(
            start_us, self._select_body(table, key), read_only=True
        )

    def range_select(
        self, start_us: float, table: str, low: int, high: int
    ) -> OpResult:
        return self._statement(
            start_us, self._range_select_body(table, low, high), read_only=True
        )

    # -- engine-native DML -------------------------------------------------------------

    def _statement_proc(self, body, read_only: bool = False):
        """One statement as an engine process.

        Execute-CPU really queues on the core pool; the body (B+tree
        work) and redo collection then run in the same atomic step —
        the shared buffer pool's touched-page set must not observe
        another client's mutations between the two.  Buffer-pool misses
        inside the body charge storage reads analytically onto the
        context; the process sleeps that time off before committing.
        A writing statement holds the pages it touched until its redo is
        durable: storage's copy lacks that redo (§3.3.3), so no statement
        may read it in the meantime.
        """
        engine = self._sim_engine
        yield from self.cpu.process(EXECUTE_CPU_US)
        ctx = OpContext(engine.now_us)
        value = body(ctx)
        touched = self.pool.drain_touched()
        if read_only:
            touched = {}  # reads generate no redo and hold nothing
        records = self._collect_redo(touched)
        self.pool.hold(touched)
        try:
            if ctx.now_us > engine.now_us:
                yield engine.sleep_until(ctx.now_us)
            if not records:
                return OpResult(engine.now_us, ctx.io_reads, 0, value)
            yield from self.cpu.process(COMMIT_CPU_US)
            commit = yield from self.store.write_redo_proc(records)
        finally:
            self.pool.release(touched)
        return OpResult(
            commit, ctx.io_reads, sum(r.size_bytes for r in records), value
        )

    def insert_proc(self, table: str, key: int, value: bytes):
        result = yield from self._statement_proc(
            self._insert_body(table, key, value)
        )
        return result

    def update_proc(self, table: str, key: int, value: bytes):
        result = yield from self._statement_proc(
            self._update_body(table, key, value)
        )
        return result

    def delete_proc(self, table: str, key: int):
        result = yield from self._statement_proc(
            self._delete_body(table, key)
        )
        return result

    def select_proc(self, table: str, key: int):
        result = yield from self._statement_proc(
            self._select_body(table, key), read_only=True
        )
        return result

    def range_select_proc(self, table: str, low: int, high: int):
        result = yield from self._statement_proc(
            self._range_select_body(table, low, high), read_only=True
        )
        return result

    # -- bulk load -------------------------------------------------------------------

    def bulk_load(
        self, start_us: float, table: str, rows: List[Tuple[int, bytes]]
    ) -> float:
        """Load many rows, one redo commit per ``BULK_REDO_BATCH`` rows
        (initial data load)."""
        now = start_us
        tree = self.tree(table)
        pending = 0
        for key, value in rows:
            ctx = OpContext(now)
            tree.insert(ctx, key, value, self._next_lsn)
            now = ctx.now_us
            pending += 1
            if pending >= BULK_REDO_BATCH:
                now = self._commit(OpContext(now))[0]
                pending = 0
        if pending:
            now = self._commit(OpContext(now))[0]
        return now
