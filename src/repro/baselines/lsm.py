"""LSM-tree substrate with compression at compaction (§2.2.1, Figure 3 a).

A real (if compact) LSM implementation: a sorted in-memory memtable, L0
flushes, and leveled compaction that merges a level into the next one.
Compression happens exactly where LSM engines do it — when blocks are
written during flush/compaction — and that is also where the approach's
costs live: compaction re-reads, decompresses, re-compresses, and rewrites
data (write/CPU amplification), competing with foreground operations.

Which level compacts next is the WA benchmark's leveled rule,
:meth:`repro.storage.consolidation.ConsolidationConfig.level_to_compact`:
L0 by table count, L1 and deeper by the SSTables' stored bytes.  The tree
has RocksDB's proportions (:data:`LEVELS`) at a memtable scaled down to
Fig 16's table (:data:`MEMTABLE_BYTES`).

All payloads are real bytes through the real codecs; block reads go
through the shared device model, and codec CPU is charged to a compute
:class:`~repro.engine.resources.Resource` shared with query execution.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import OutOfSpaceError, ReproError
from repro.common.units import KiB, LBA_SIZE, align_up
from repro.compression.memo import get_codec
from repro.compression.cost import codec_cost
from repro.engine.resources import Resource
from repro.storage.allocator import SpaceManager
from repro.storage.consolidation import ConsolidationConfig

_ENTRY = struct.Struct("<QIB")  # key, value_len, tombstone
_TOMBSTONE = 1

#: Uncompressed SSTable block size (RocksDB default is 4 KB before
#: compression; 16 KB keeps block counts manageable in simulation).
BLOCK_BYTES = 16 * KiB
#: Block codec.
CODEC = "zstd"
#: Default memtable.  RocksDB's 64 MiB write buffer is a sliver of the
#: data sets it serves; Fig 16's table is 2 000 rows (~228 KB), so the
#: memtable shrinks with it: a load flushes ~110 times, and the figure's
#: 30 measured transactions (~11 KB of writes) flush ~5 times, so L0
#: overflows during the measured run and MyRocks pays for compaction there.
MEMTABLE_BYTES = 2 * KiB
#: RocksDB's level shape: L0 compacts past 4 tables, L1 holds about four
#: memtables' worth (``max_bytes_for_level_base``), each deeper level 10x.
LEVELS = ConsolidationConfig(
    l0_limit=4, level_ratio=10, base_level_bytes=4 * MEMTABLE_BYTES
)


def _encode_entries(entries: List[Tuple[int, Optional[bytes]]]) -> bytes:
    out = bytearray()
    for key, value in entries:
        if value is None:
            out += _ENTRY.pack(key, 0, _TOMBSTONE)
        else:
            out += _ENTRY.pack(key, len(value), 0)
            out += value
    return bytes(out)


def _decode_entries(blob: bytes) -> List[Tuple[int, Optional[bytes]]]:
    entries: List[Tuple[int, Optional[bytes]]] = []
    pos = 0
    while pos < len(blob):
        key, value_len, tomb = _ENTRY.unpack_from(blob, pos)
        pos += _ENTRY.size
        if tomb:
            entries.append((key, None))
        else:
            entries.append((key, bytes(blob[pos : pos + value_len])))
            pos += value_len
    return entries


@dataclass
class SSTBlock:
    first_key: int
    last_key: int
    lba: int
    n_blocks: int
    payload_len: int


@dataclass
class SSTable:
    table_id: int
    level: int
    blocks: List[SSTBlock]
    first_key: int
    last_key: int

    @property
    def stored_bytes(self) -> int:
        return sum(b.n_blocks for b in self.blocks) * LBA_SIZE


@dataclass
class LSMStats:
    compactions: int = 0
    compaction_read_bytes: int = 0
    compaction_write_bytes: int = 0
    user_write_bytes: int = 0

    @property
    def write_amplification(self) -> float:
        """(user + compaction rewrite) bytes per user byte — the unified
        WA definition (:func:`repro.obs.amp.write_amp`)."""
        from repro.obs.amp import write_amp

        return write_amp(
            self.user_write_bytes,
            self.user_write_bytes + self.compaction_write_bytes,
        )


class LSMTree:
    """Leveled LSM-tree over one block device."""

    def __init__(
        self,
        device,
        compute=None,
        memtable_bytes: int = MEMTABLE_BYTES,
    ) -> None:
        self.device = device
        self.compute = compute if compute is not None else Resource("lsm-compute")
        self.memtable_bytes = memtable_bytes
        self.stats = LSMStats()
        self._memtable: Dict[int, Optional[bytes]] = {}
        self._memtable_size = 0
        self._levels: List[List[SSTable]] = [
            [] for _ in range(LEVELS.max_levels)
        ]
        self._next_table_id = 1
        #: Trimmed tables' blocks return here for later tables.
        self.space = SpaceManager(device.spec.logical_capacity)

    # -- write path --------------------------------------------------------

    def put(self, start_us: float, key: int, value: bytes) -> float:
        return self._mutate(start_us, key, value)

    def delete(self, start_us: float, key: int) -> float:
        return self._mutate(start_us, key, None)

    def _mutate(self, start_us: float, key: int, value: Optional[bytes]) -> float:
        size = _ENTRY.size + (len(value) if value else 0)
        self._memtable[key] = value
        self._memtable_size += size
        self.stats.user_write_bytes += size
        now = start_us
        if self._memtable_size >= self.memtable_bytes:
            now = self._flush(now)
        return now

    def _flush(self, start_us: float) -> float:
        """Write the memtable as an L0 table, then compact the shallowest
        level over its :data:`LEVELS` budget until none is."""
        entries = sorted(self._memtable.items())
        self._memtable = {}
        self._memtable_size = 0
        table, now = self._write_table(start_us, entries, level=0)
        self._levels[0].append(table)
        while (
            level := LEVELS.level_to_compact(
                self._levels, lambda t: t.stored_bytes
            )
        ) is not None:
            now = self._compact_level(now, level)
        return now

    def _write_table(
        self,
        start_us: float,
        entries: List[Tuple[int, Optional[bytes]]],
        level: int,
    ) -> Tuple[SSTable, float]:
        codec = get_codec(CODEC)
        cost = codec_cost(CODEC)
        blocks: List[SSTBlock] = []
        now = start_us
        chunk: List[Tuple[int, Optional[bytes]]] = []
        chunk_bytes = 0

        def emit(chunk, now):
            blob = _encode_entries(chunk)
            payload = codec.compress(blob)
            # Compression CPU contends with queries on the compute node.
            now = self.compute.serve(now, cost.compress_us(len(blob)))
            stored = align_up(max(len(payload), 1), LBA_SIZE)
            lba = self._allocate(stored)
            padded = payload + b"\x00" * (stored - len(payload))
            now = self.device.write(now, lba, padded).done_us
            blocks.append(
                SSTBlock(chunk[0][0], chunk[-1][0], lba, stored // LBA_SIZE,
                         len(payload))
            )
            self.stats.compaction_write_bytes += stored if level > 0 else 0
            return now

        for key, value in entries:
            chunk.append((key, value))
            chunk_bytes += _ENTRY.size + (len(value) if value else 0)
            if chunk_bytes >= BLOCK_BYTES:
                now = emit(chunk, now)
                chunk, chunk_bytes = [], 0
        if chunk:
            now = emit(chunk, now)
        if not blocks:
            raise ReproError("flush of empty memtable")
        table = SSTable(
            self._next_table_id, level, blocks, blocks[0].first_key,
            blocks[-1].last_key,
        )
        self._next_table_id += 1
        return table, now

    def _allocate(self, nbytes: int) -> int:
        try:
            return self.space.allocate_blocks(nbytes)
        except OutOfSpaceError:
            raise ReproError("LSM device full") from None

    # -- compaction ------------------------------------------------------------

    def _compact_level(self, start_us: float, level: int) -> float:
        """Merge every table of ``level`` with the next level's table."""
        sources = self._levels[level] + self._levels[level + 1]
        self._levels[level] = []
        self._levels[level + 1] = []
        merged: Dict[int, Optional[bytes]] = {}
        now = start_us
        cost = codec_cost(CODEC)
        codec = get_codec(CODEC)
        # Newest data wins (setdefault keeps the first-seen version):
        # shallower levels are newer, and within a level a higher table_id
        # is newer.
        for table in sorted(sources, key=lambda t: (t.level, -t.table_id)):
            for block in table.blocks:
                completion = self.device.read(now, block.lba, block.n_blocks * LBA_SIZE)
                now = completion.done_us
                blob = codec.decompress(completion.data[: block.payload_len])
                now = self.compute.serve(now, cost.decompress_us(len(blob)))
                self.stats.compaction_read_bytes += block.n_blocks * LBA_SIZE
                for key, value in _decode_entries(blob):
                    merged.setdefault(key, value)
            self._trim_table(table)
        entries = sorted(merged.items())
        if not any(self._levels[level + 2:]):
            # Nothing older lies below: a tombstone has nothing to shadow.
            entries = [e for e in entries if e[1] is not None]
        if entries:
            table, now = self._write_table(now, entries, level + 1)
            self._levels[level + 1].append(table)
        self.stats.compactions += 1
        return now

    def _trim_table(self, table: SSTable) -> None:
        for block in table.blocks:
            self.device.trim(block.lba, block.n_blocks * LBA_SIZE)
            self.space.free_blocks(block.lba, block.n_blocks * LBA_SIZE)

    # -- read path ----------------------------------------------------------------

    def get(self, start_us: float, key: int) -> Tuple[Optional[bytes], float]:
        if key in self._memtable:
            return self._memtable[key], start_us
        now = start_us
        cost = codec_cost(CODEC)
        codec = get_codec(CODEC)
        for level, tables in enumerate(self._levels):
            # L0 newest-first; deeper levels have non-overlapping tables.
            ordered = sorted(tables, key=lambda t: -t.table_id)
            for table in ordered:
                if not table.first_key <= key <= table.last_key:
                    continue
                block = self._find_block(table, key)
                if block is None:
                    continue
                completion = self.device.read(now, block.lba, block.n_blocks * LBA_SIZE)
                now = completion.done_us
                blob = codec.decompress(completion.data[: block.payload_len])
                now = self.compute.serve(now, cost.decompress_us(len(blob)))
                for entry_key, value in _decode_entries(blob):
                    if entry_key == key:
                        return value, now
        return None, now

    def range(
        self, start_us: float, low: int, high: int
    ) -> Tuple[List[Tuple[int, bytes]], float]:
        """Iterator-style range scan: each overlapping block is read and
        decompressed once, newest version wins."""
        now = start_us
        cost = codec_cost(CODEC)
        codec = get_codec(CODEC)
        merged: Dict[int, Optional[bytes]] = {}
        for key, value in self._memtable.items():
            if low <= key <= high:
                merged[key] = value
        for tables in self._levels:
            for table in sorted(tables, key=lambda t: -t.table_id):
                if table.last_key < low or table.first_key > high:
                    continue
                for block in table.blocks:
                    if block.last_key < low or block.first_key > high:
                        continue
                    completion = self.device.read(
                        now, block.lba, block.n_blocks * LBA_SIZE
                    )
                    now = completion.done_us
                    blob = codec.decompress(completion.data[: block.payload_len])
                    now = self.compute.serve(now, cost.decompress_us(len(blob)))
                    for entry_key, value in _decode_entries(blob):
                        if low <= entry_key <= high:
                            merged.setdefault(entry_key, value)
        rows = [
            (key, value)
            for key, value in sorted(merged.items())
            if value is not None
        ]
        return rows, now

    @staticmethod
    def _find_block(table: SSTable, key: int) -> Optional[SSTBlock]:
        for block in table.blocks:
            if block.first_key <= key <= block.last_key:
                return block
        return None

    # -- space --------------------------------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        return sum(t.stored_bytes for level in self._levels for t in level)

    def flush_now(self, start_us: float) -> float:
        """Force a memtable flush (used by space benchmarks)."""
        return self._flush(start_us) if self._memtable else start_us
