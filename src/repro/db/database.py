"""A PolarDB instance: RW node + RO nodes + shared PolarStore."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.api.config import NodeConfig
from repro.db.ro_node import RONode
from repro.db.rw_node import RWNode
from repro.storage.store import PolarStore


class PolarDB:
    """Convenience wiring of the whole stack for examples and benchmarks."""

    def __init__(
        self,
        store: Optional[PolarStore] = None,
        config: Optional[NodeConfig] = None,
        buffer_pool_pages: int = 256,
        ro_nodes: int = 1,
        volume_bytes: int = 256 * 1024 * 1024,
        seed: int = 0,
    ) -> None:
        if store is None:
            store = PolarStore(
                config if config is not None else NodeConfig(),
                volume_bytes=volume_bytes,
                seed=seed,
            )
        self.store = store
        self.rw = RWNode(store, buffer_pool_pages)
        self.ro: List[RONode] = [
            RONode(store, self.rw, buffer_pool_pages) for _ in range(ro_nodes)
        ]
        self._sim_engine = None

    # -- engine wiring -------------------------------------------------------

    def bind_engine(self, engine, defer_gc: bool = False) -> None:
        """Run the whole instance on one shared discrete-event kernel:
        device queues, compute core pools, and the redo group-commit
        pipeline all serve genuinely concurrent processes (what
        ``workloads.sysbench`` drives for thread-scaling figures)."""
        self._sim_engine = engine
        self.store.bind_engine(engine, defer_gc=defer_gc)
        self.rw.bind_engine(engine)
        for i, ro in enumerate(self.ro):
            ro.bind_engine(engine, label=str(i))

    # -- engine-native DML (generators; require bind_engine) -----------------

    def insert_proc(self, table: str, key: int, value: bytes):
        return self.rw.insert_proc(table, key, value)

    def update_proc(self, table: str, key: int, value: bytes):
        return self.rw.update_proc(table, key, value)

    def delete_proc(self, table: str, key: int):
        return self.rw.delete_proc(table, key)

    def select_proc(self, table: str, key: int, ro_index: int = -1):
        if ro_index >= 0:
            return self.ro[ro_index].select_proc(table, key)
        return self.rw.select_proc(table, key)

    def range_select_proc(self, table: str, low: int, high: int):
        return self.rw.range_select_proc(table, low, high)

    # -- DDL/DML passthrough ------------------------------------------------

    def create_table(self, name: str) -> None:
        self.rw.create_table(name)

    def insert(self, now_us: float, table: str, key: int, value: bytes):
        return self.rw.insert(now_us, table, key, value)

    def update(self, now_us: float, table: str, key: int, value: bytes):
        return self.rw.update(now_us, table, key, value)

    def delete(self, now_us: float, table: str, key: int):
        return self.rw.delete(now_us, table, key)

    def select(self, now_us: float, table: str, key: int, ro_index: int = -1):
        """Point select; ``ro_index >= 0`` routes to a read-only node."""
        if ro_index >= 0:
            return self.ro[ro_index].select(now_us, table, key)
        return self.rw.select(now_us, table, key)

    def range_select(self, now_us: float, table: str, low: int, high: int):
        return self.rw.range_select(now_us, table, low, high)

    def bulk_load(
        self, now_us: float, table: str, rows: List[Tuple[int, bytes]]
    ) -> float:
        return self.rw.bulk_load(now_us, table, rows)

    def checkpoint(self, now_us: float) -> float:
        """Force the storage layer to materialize all pending redo."""
        done = self.store.checkpoint(now_us)
        from repro.obs.events import recorder_active

        rec = recorder_active()
        if rec is not None:
            rec.emit(
                done, "db", "checkpoint",
                duration_us=round(done - now_us, 3),
            )
        return done

    # -- observability ----------------------------------------------------------

    @property
    def metrics(self):
        """The volume-wide :class:`~repro.obs.metrics.MetricsRegistry` —
        every layer (db, storage, compression, csd) publishes here."""
        return self.store.metrics

    def compression_ratio(self) -> float:
        return self.store.compression_ratio()

    @property
    def logical_bytes(self) -> int:
        return self.store.logical_used_bytes

    @property
    def physical_bytes(self) -> int:
        return self.store.physical_used_bytes
