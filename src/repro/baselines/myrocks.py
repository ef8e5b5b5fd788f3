"""MyRocks-style engine: LSM storage with compression on the compute node.

Exposes the same statement API as :class:`repro.db.database.PolarDB` so
the sysbench driver runs unchanged (Figure 16).  The decisive difference
from PolarStore: every codec byte — flush compression, compaction
decompress/recompress, read-path decompression — burns *compute node* CPU
(the resource users pay for), and compaction I/O competes with foreground
queries on the same device.

Its :class:`~repro.baselines.lsm.LSMTree` compacts by the same leveled rule
as the WA benchmark's policy, at RocksDB's proportions and a memtable
scaled to Fig 16's table (``lsm.LEVELS``, ``lsm.MEMTABLE_BYTES``), so the
figure's measured transactions flush and compact, not only its load.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import ReproError
from repro.common.ops import OpResult
from repro.common.units import MiB
from repro.csd.device import PlainSSD
from repro.csd.specs import P5510
from repro.db.rw_node import EXECUTE_CPU_US
from repro.baselines.lsm import LSMTree
from repro.engine.resources import Resource


class MyRocksEngine:
    """Single-node LSM database with the PolarDB statement interface."""

    def __init__(
        self,
        volume_bytes: int = 256 * MiB,
        seed: int = 0,
    ) -> None:
        spec = dataclasses.replace(
            P5510, logical_capacity=volume_bytes, physical_capacity=volume_bytes
        )
        self.device = PlainSSD(spec, seed=seed)
        self.compute = Resource("myrocks-compute", servers=8)
        self.lsm = LSMTree(self.device, self.compute)
        self._tables: set = set()

    # -- DDL/DML (PolarDB-compatible surface) -------------------------------

    def create_table(self, name: str) -> None:
        if name in self._tables:
            raise ReproError(f"table {name!r} already exists")
        self._tables.add(name)

    def _check(self, table: str) -> None:
        if table not in self._tables:
            raise ReproError(f"no such table {table!r}")

    def insert(self, now_us: float, table: str, key: int, value: bytes) -> OpResult:
        self._check(table)
        done = self.lsm.put(now_us + EXECUTE_CPU_US, key, value)
        return OpResult(done, 0, len(value))

    def update(self, now_us: float, table: str, key: int, value: bytes) -> OpResult:
        return self.insert(now_us, table, key, value)

    def delete(self, now_us: float, table: str, key: int) -> OpResult:
        self._check(table)
        done = self.lsm.delete(now_us + EXECUTE_CPU_US, key)
        return OpResult(done, 0, 16)

    def select(
        self, now_us: float, table: str, key: int, ro_index: int = -1
    ) -> OpResult:
        self._check(table)
        value, done = self.lsm.get(now_us + EXECUTE_CPU_US, key)
        return OpResult(done, 1 if done > now_us + EXECUTE_CPU_US else 0, 0, value)

    def range_select(
        self, now_us: float, table: str, low: int, high: int
    ) -> OpResult:
        self._check(table)
        rows, now = self.lsm.range(now_us + EXECUTE_CPU_US, low, high)
        return OpResult(now, 0, 0, b"".join(value for _, value in rows))

    def bulk_load(self, now_us: float, table: str, rows) -> float:
        self._check(table)
        now = now_us
        for key, value in rows:
            now = self.lsm.put(now, key, value)
        return now

    def checkpoint(self, now_us: float) -> float:
        return self.lsm.flush_now(now_us)

    # -- space ------------------------------------------------------------------

    @property
    def physical_bytes(self) -> int:
        return self.lsm.stored_bytes

    def compression_ratio(self) -> float:
        stored = self.lsm.stored_bytes
        if stored == 0:
            return 1.0
        return self.lsm.stats.user_write_bytes / stored
