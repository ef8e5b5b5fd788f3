"""InnoDB-style compression baselines (§2.2.1, Figure 3 b).

Two pieces:

:class:`InnoDBStore`
    A page store over a plain SSD that compresses 16 KB pages into 4 KB
    **file blocks** at the compute node — table compression maps each page
    to 1/2/4 file blocks (never 3: InnoDB's KEY_BLOCK_SIZE semantics),
    page compression stores any ceil-aligned count and hole-punches the
    rest.  Either way, codec CPU runs on the compute node and 4 KB block
    granularity wastes the space Figure 2a quantifies.

:class:`InnoDBEngine`
    The same statement API as :class:`~repro.db.database.PolarDB`, backed
    by the shared B+tree/buffer-pool code in write-back mode (dirty pages
    must be compressed and flushed on eviction — on the query path) with a
    local redo log on the same device.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.units import DB_PAGE_SIZE, LBA_SIZE, MiB, ceil_div
from repro.compression.base import get_codec
from repro.compression.cost import codec_cost
from repro.csd.device import PlainSSD
from repro.csd.specs import P5510
from repro.db.btree import BPlusTree
from repro.db.bufferpool import BufferPool, OpContext
from repro.db.rw_node import COMMIT_CPU_US, EXECUTE_CPU_US, OpResult
from repro.engine import ResourcePool

#: The page codec.
CODEC = "zstd"


@dataclass(frozen=True)
class _PageLocation:
    lba: int
    n_blocks: int
    payload_len: int
    compressed: bool


@dataclass(frozen=True)
class _StoreResult:
    data: Optional[bytes]
    done_us: float

    @property
    def commit_us(self) -> float:
        return self.done_us


class InnoDBStore:
    """Compute-side compressed page store on a conventional SSD."""

    def __init__(
        self,
        volume_bytes: int = 256 * MiB,
        table_compression: bool = True,
        seed: int = 0,
        compute=None,
    ) -> None:
        spec = dataclasses.replace(
            P5510, logical_capacity=volume_bytes, physical_capacity=volume_bytes
        )
        self.device = PlainSSD(spec, seed=seed)
        #: Compute-node cores the codec work runs on (None = uncontended).
        self.compute = compute
        #: True: table compression (1/2/4-block sizes); False: page
        #: compression with hole punching (any ceil-aligned size).
        self.table_compression = table_compression
        self._locations: Dict[int, _PageLocation] = {}
        self._lba_cursor = 0
        self._free: Dict[int, List[int]] = {}  # n_blocks -> [lba]
        self.compress_cpu_us = 0.0
        self.decompress_cpu_us = 0.0

    # -- helpers ------------------------------------------------------------

    def _blocks_for(self, payload_len: int) -> int:
        raw = ceil_div(payload_len, LBA_SIZE)
        if not self.table_compression:
            return min(raw, DB_PAGE_SIZE // LBA_SIZE)
        # Table compression: page sizes are powers of two (4/8/16 KB).
        for blocks in (1, 2, 4):
            if raw <= blocks:
                return blocks
        return 4

    def _allocate(self, n_blocks: int) -> int:
        free = self._free.get(n_blocks)
        if free:
            return free.pop()
        lba = self._lba_cursor
        capacity_blocks = self.device.spec.logical_capacity // LBA_SIZE
        if lba + n_blocks > capacity_blocks:
            raise ReproError("InnoDB store device full")
        self._lba_cursor += n_blocks
        return lba

    def _release(self, location: _PageLocation) -> None:
        self._free.setdefault(location.n_blocks, []).append(location.lba)
        self.device.trim(location.lba, location.n_blocks * LBA_SIZE)

    # -- page API (BufferPool-compatible) ----------------------------------------

    def write_page(self, start_us: float, page_no: int, data: bytes) -> _StoreResult:
        if len(data) != DB_PAGE_SIZE:
            raise ReproError("InnoDB store writes whole pages")
        codec = get_codec(CODEC)
        cost = codec_cost(CODEC)
        payload = codec.compress(data)
        cpu = cost.compress_us(len(data))
        self.compress_cpu_us += cpu
        # Compression on the compute node, in line with the query.
        if self.compute is not None:
            now = self.compute.serve(start_us, cpu)
        else:
            now = start_us + cpu
        if len(payload) >= DB_PAGE_SIZE:
            payload, compressed = data, False
        else:
            compressed = True
        n_blocks = self._blocks_for(len(payload))
        if n_blocks * LBA_SIZE >= DB_PAGE_SIZE:
            payload, compressed = data, False
            n_blocks = DB_PAGE_SIZE // LBA_SIZE
        old = self._locations.get(page_no)
        lba = self._allocate(n_blocks)
        padded = payload + b"\x00" * (n_blocks * LBA_SIZE - len(payload))
        completion = self.device.write(now, lba, padded)
        self._locations[page_no] = _PageLocation(
            lba, n_blocks, len(payload), compressed
        )
        if old is not None:
            self._release(old)
        return _StoreResult(None, completion.done_us)

    def read_page(self, start_us: float, page_no: int) -> _StoreResult:
        location = self._locations.get(page_no)
        if location is None:
            raise ReproError(f"InnoDB store: page {page_no} does not exist")
        completion = self.device.read(
            start_us, location.lba, location.n_blocks * LBA_SIZE
        )
        now = completion.done_us
        payload = completion.data[: location.payload_len]
        if location.compressed:
            data = get_codec(CODEC).decompress(payload)
            cpu = codec_cost(CODEC).decompress_us(
                location.n_blocks * LBA_SIZE
            )
            self.decompress_cpu_us += cpu
            # Decompression on the compute node, in line with the query.
            if self.compute is not None:
                now = self.compute.serve(now, cpu)
            else:
                now += cpu
        else:
            data = payload
        return _StoreResult(data, now)

    # -- space -------------------------------------------------------------------------

    @property
    def logical_bytes(self) -> int:
        return len(self._locations) * DB_PAGE_SIZE

    @property
    def physical_bytes(self) -> int:
        """Data-area blocks held, including free-list fragmentation.

        (Computed from the allocator, not the raw device, so the redo-log
        ring the engine shares the device with is excluded.)
        """
        live = sum(loc.n_blocks for loc in self._locations.values())
        fragmented = sum(
            n_blocks * len(lbas) for n_blocks, lbas in self._free.items()
        )
        return (live + fragmented) * LBA_SIZE

    def compression_ratio(self) -> float:
        physical = self.physical_bytes
        if physical == 0:
            return 1.0
        return self.logical_bytes / physical


class InnoDBEngine:
    """InnoDB-with-compression database exposing the PolarDB surface."""

    def __init__(
        self,
        volume_bytes: int = 256 * MiB,
        buffer_pool_pages: int = 256,
        seed: int = 0,
    ) -> None:
        self.cpu = ResourcePool("innodb-cpu", 8)
        self.store = InnoDBStore(volume_bytes, seed=seed, compute=self.cpu)
        self.pool = BufferPool(buffer_pool_pages, self.store, writeback=True)
        self.trees: Dict[str, BPlusTree] = {}
        self._next_page_no = 1
        self._next_lsn = 1
        # Redo on the same device (no separate performance layer).
        self._redo_cursor = self.store.device.spec.logical_capacity // LBA_SIZE - 1

    def _allocate_page_no(self) -> int:
        page_no = self._next_page_no
        self._next_page_no += 1
        return page_no

    def create_table(self, name: str) -> None:
        if name in self.trees:
            raise ReproError(f"table {name!r} already exists")
        self.trees[name] = BPlusTree(self.pool, self._allocate_page_no)

    def _tree(self, name: str) -> BPlusTree:
        if name not in self.trees:
            raise ReproError(f"no such table {name!r}")
        return self.trees[name]

    def _commit(self, ctx: OpContext, redo_bytes: int) -> float:
        """Local redo write (one 4 KB block at the log tail)."""
        ctx.charge_cpu(COMMIT_CPU_US)
        lba = self._redo_cursor
        self._redo_cursor -= 1
        if self._redo_cursor < self.store._lba_cursor + 8:
            self._redo_cursor = (
                self.store.device.spec.logical_capacity // LBA_SIZE - 1
            )
        completion = self.store.device.write(ctx.now_us, lba, b"\x00" * LBA_SIZE)
        return completion.done_us

    def _finish_write(self, ctx: OpContext) -> Tuple[float, int]:
        redo_bytes = 0
        for _, page in self.pool.drain_touched().items():
            redo_bytes += sum(len(d) for _, d in page.drain_mods())
        done = self._commit(ctx, redo_bytes)
        self._next_lsn += 1
        return done, redo_bytes

    # -- statements --------------------------------------------------------------

    def _start(self, now_us: float) -> OpContext:
        return OpContext(self.cpu.serve(now_us, EXECUTE_CPU_US))

    def insert(self, now_us: float, table: str, key: int, value: bytes) -> OpResult:
        ctx = self._start(now_us)
        self._tree(table).insert(ctx, key, value, self._next_lsn)
        done, redo = self._finish_write(ctx)
        return OpResult(done, ctx.io_reads, redo)

    def update(self, now_us: float, table: str, key: int, value: bytes) -> OpResult:
        ctx = self._start(now_us)
        if not self._tree(table).update(ctx, key, value, self._next_lsn):
            raise ReproError(f"update of missing key {key}")
        done, redo = self._finish_write(ctx)
        return OpResult(done, ctx.io_reads, redo)

    def delete(self, now_us: float, table: str, key: int) -> OpResult:
        ctx = self._start(now_us)
        if not self._tree(table).delete(ctx, key, self._next_lsn):
            raise ReproError(f"delete of missing key {key}")
        done, redo = self._finish_write(ctx)
        return OpResult(done, ctx.io_reads, redo)

    def select(
        self, now_us: float, table: str, key: int, ro_index: int = -1
    ) -> OpResult:
        ctx = self._start(now_us)
        value = self._tree(table).search(ctx, key)
        self.pool.drain_touched()
        return OpResult(ctx.now_us, ctx.io_reads, 0, value)

    def range_select(self, now_us: float, table: str, low: int, high: int) -> OpResult:
        ctx = self._start(now_us)
        rows = self._tree(table).range_scan(ctx, low, high)
        self.pool.drain_touched()
        return OpResult(ctx.now_us, ctx.io_reads, 0, b"".join(v for _, v in rows))

    def bulk_load(self, now_us: float, table: str, rows) -> float:
        now = now_us
        tree = self._tree(table)
        for key, value in rows:
            ctx = OpContext(now)
            tree.insert(ctx, key, value, self._next_lsn)
            self._next_lsn += 1
            now = ctx.now_us
        self.pool.drain_touched()
        return now

    def checkpoint(self, now_us: float) -> float:
        """Flush every dirty page (compress + write, compute-side)."""
        now = now_us
        for page_no in list(self.pool._pages._items):
            page = self.pool.lookup(page_no)
            if page is not None and page.dirty:
                result = self.store.write_page(now, page_no, page.to_bytes())
                now = result.done_us
                page.dirty = False
        return now

    # -- space ---------------------------------------------------------------------------

    @property
    def physical_bytes(self) -> int:
        return self.store.physical_bytes

    def compression_ratio(self) -> float:
        return self.store.compression_ratio()
