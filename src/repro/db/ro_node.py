"""Read-only compute nodes.

An RO node serves queries from its own buffer pool and fetches missing
pages from shared storage (§2.1).  The model keeps no parsing-progress
LSN per RO node: the log-cache pressure a lagging RO node causes in the
paper's Figure 15 scenario is set on the storage side, as a small
``NodeConfig.redo_cache_bytes`` that spills redo out of the cache.
"""

from __future__ import annotations


from repro.db.btree import descend
from repro.engine.resources import Resource
from repro.db.bufferpool import BufferPool, OpContext
from repro.db.rw_node import EXECUTE_CPU_US, OpResult, RWNode


class RONode:
    """One read-only replica of the compute layer."""

    def __init__(
        self,
        store,
        rw_node: RWNode,
        buffer_pool_pages: int = 256,
        cpu_cores: int = 8,
    ) -> None:
        self.store = store
        self.rw = rw_node
        self.pool = BufferPool(buffer_pool_pages, store)
        #: Query execution contends for the node's cores; at high thread
        #: counts this queue, not the storage I/O, bounds throughput (the
        #: Figure 15 crossover beyond 128 threads).
        self.cpu = Resource("ro-cpu", servers=cpu_cores)
        self._sim_engine = None

    def bind_engine(self, engine, label: str = "0") -> None:
        """Attach the core pool to a shared event kernel.  At high thread
        counts the FIFO wait here — not storage I/O — bounds throughput:
        the Figure 15 CPU-bound crossover emerges from this queue."""
        self._sim_engine = engine
        self.cpu.bind_engine(engine)
        registry = getattr(self.store, "metrics", None)
        if registry is not None:
            self.cpu.bind_metrics(registry, node=f"ro-{label}")

    def _lookup(self, ctx: OpContext, table: str, key: int):
        """The query body shared by both execution paths: descend the
        RW node's tree through this node's own buffer pool."""
        root = self.rw.tree(table).root_page_no
        leaf = descend(self.pool, ctx, root, key)
        return leaf.get(key)

    def select(self, start_us: float, table: str, key: int) -> OpResult:
        # Execution CPU goes through the node's core pool: it queues when
        # more threads are running than cores exist.
        started = self.cpu.serve(start_us, EXECUTE_CPU_US)
        ctx = OpContext(started)
        value = self._lookup(ctx, table, key)
        # Result assembly + row handling back on the CPU.
        ctx.now_us = self.cpu.serve(ctx.now_us, EXECUTE_CPU_US / 2)
        self.pool.drain_touched()
        return OpResult(ctx.now_us, ctx.io_reads, 0, value)

    def select_proc(self, table: str, key: int):
        """Engine process: the select's CPU slices really queue FIFO on
        the node's core pool, so core saturation under high concurrency
        is emergent rather than analytic."""
        engine = self._sim_engine
        yield from self.cpu.process(EXECUTE_CPU_US)
        ctx = OpContext(engine.now_us)
        value = self._lookup(ctx, table, key)
        self.pool.drain_touched()
        if ctx.now_us > engine.now_us:
            # Storage reads from buffer-pool misses were charged
            # analytically; live through them before the result slice.
            yield engine.sleep_until(ctx.now_us)
        # Result assembly + row handling back on the CPU.
        yield from self.cpu.process(EXECUTE_CPU_US / 2)
        return OpResult(engine.now_us, ctx.io_reads, 0, value)
