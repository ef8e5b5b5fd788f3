"""The sharded cluster runtime: real replica groups on one event kernel.

This module closes the last gap between the paper's cluster story (§4.2,
Figures 9b/10/11) and the rest of the reproduction.  The analytic
:mod:`repro.cluster` machinery schedules ``(size, ratio)`` counters; here
every shard is a real :class:`~repro.storage.store.PolarStore` replica
group living on one shared :class:`~repro.engine.core.Engine`, tables are
range-sharded into chunks whose pages hold real row bytes, and migration
runs as an engine daemon that

1. **copies** — reads every page of the chunk from the source volume and
   writes it through the target's full compression/replication path
   (so the moved bytes are *actual codec output*, and the copy consumes
   simulated device time on both volumes);
2. **catches up** — writes that land on the chunk while the copy is in
   flight are journaled (page-granular redo); catch-up rounds replay the
   journal until it runs dry or the round budget is spent;
3. **cuts over** — a short write pause drains the final journal delta,
   flips ownership, unblocks writers against the target, and frees the
   source copies.  Acknowledged writes are never lost: a write either
   committed on the source before its page's final replay, or blocked on
   the cutover gate and committed on the target.

The :class:`~repro.cluster.scheduler.LogicalOnlyScheduler` and
:class:`~repro.cluster.scheduler.CompressionAwareScheduler` both drive
this runtime unchanged: :meth:`ClusterRuntime.snapshot` mirrors the fleet
into the abstract plane with *measured* per-chunk logical and physical
bytes, and :meth:`ClusterRuntime.rebalance` executes the resulting plan
as throttled concurrent migration daemons.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ReproError, SchedulingError
from repro.common.units import DB_PAGE_SIZE
from repro.cluster.chunk import Chunk, StorageServer
from repro.cluster.cluster import Cluster
from repro.cluster.scheduler import (
    CompressionAwareScheduler,
    LogicalOnlyScheduler,
    MigrationTask,
)
from repro.db.rw_node import OpResult
from repro.engine.core import Engine
from repro.engine.resources import Queue
from repro.obs.events import recorder_active
from repro.obs.metrics import MetricsRegistry
from repro.storage.store import PolarStore

#: Row wire format: key, value length (the rest of the page is filler
#: tiled from the value so page compressibility tracks the row data).
_ROW_HEADER = struct.Struct("<QI")

#: Keys per range-sharded chunk (each key owns one 16 KiB page).
CHUNK_KEYS = 8
#: Placement block threshold (§4.2.1).
USAGE_LIMIT = 0.75
#: Concurrent chunk moves (background mover throttle).
MIGRATION_STREAMS = 2
#: Catch-up rounds before the cutover pause forces a final drain.
MAX_CATCHUP_ROUNDS = 3
#: Physical capacity of a shard as a fraction of its logical capacity
#: (drives the logical-vs-physical stranding of Fig 10/11).
PHYSICAL_FRACTION = 0.5


def encode_row_page(key: int, value: bytes) -> bytes:
    """One 16 KiB page image holding one row.

    The filler repeats the value rather than zero-padding: a page of
    incompressible row bytes stays incompressible, so per-chunk
    compression ratios measured off the codecs reflect the data actually
    stored (what Figures 10/11 are about).
    """
    if len(value) > DB_PAGE_SIZE - _ROW_HEADER.size:
        raise ReproError(
            f"row value of {len(value)} bytes exceeds one page"
        )
    header = _ROW_HEADER.pack(key, len(value))
    body = value if value else b"\x00"
    filler_len = DB_PAGE_SIZE - len(header) - len(value)
    filler = (body * (filler_len // len(body) + 1))[:filler_len]
    return header + value + filler


def decode_row_page(image: bytes) -> Tuple[int, bytes]:
    key, length = _ROW_HEADER.unpack_from(image)
    return key, image[_ROW_HEADER.size:_ROW_HEADER.size + length]


class ChunkState(enum.Enum):
    SERVING = "serving"
    MIGRATING = "migrating"   # copy/catch-up in flight; writes journal
    CUTOVER = "cutover"       # final drain; writes block on the gate


@dataclass
class RuntimeChunk:
    """One range-sharded placement unit backed by real pages."""

    chunk_id: int
    table: str
    key_lo: int
    key_hi: int  # exclusive
    shard_id: int
    rows: Dict[int, int] = field(default_factory=dict)  # key -> page_no
    state: ChunkState = ChunkState.SERVING
    #: Keys dirtied (written or deleted) since the migration copy began.
    dirty: "set[int]" = field(default_factory=set)
    #: Keys deleted mid-migration -> the page number their target copy
    #: (if any) must be dropped from during catch-up.
    deleted: Dict[int, int] = field(default_factory=dict)
    #: Writers blocked during cutover wait on this gate.
    gate: Optional[object] = None
    #: Writes routed to the source and still in flight; cutover waits
    #: for this to reach zero before the final drain.
    in_flight: int = 0
    #: Event the migration daemon waits on while in-flight writes drain.
    quiesce: Optional[object] = None

    @property
    def logical_bytes(self) -> int:
        return len(self.rows) * DB_PAGE_SIZE


class ShardServer:
    """One shard: a replicated PolarStore volume plus capacity bounds."""

    def __init__(
        self,
        shard_id: int,
        store: PolarStore,
        logical_capacity: int,
        physical_capacity: int,
    ) -> None:
        self.shard_id = shard_id
        self.store = store
        self.logical_capacity = logical_capacity
        self.physical_capacity = physical_capacity
        self.chunks: Dict[int, RuntimeChunk] = {}

    # -- measured space (real codec output, leader replica) ---------------

    @property
    def logical_used(self) -> int:
        return sum(c.logical_bytes for c in self.chunks.values())

    def chunk_physical_bytes(self, chunk: RuntimeChunk) -> int:
        leader = self.store.leader
        return sum(
            leader.page_stored_bytes(p) for p in chunk.rows.values()
        )

    @property
    def physical_used(self) -> int:
        return sum(
            self.chunk_physical_bytes(c) for c in self.chunks.values()
        )

    def chunk_ratio(self, chunk: RuntimeChunk) -> float:
        physical = self.chunk_physical_bytes(chunk)
        if physical == 0:
            return 1.0
        return chunk.logical_bytes / physical


class MigrationReport:
    """What one rebalance pass physically did."""

    def __init__(self) -> None:
        self.tasks: List[MigrationTask] = []
        self.moved_pages = 0
        self.catchup_pages = 0
        self.moved_logical_bytes = 0
        self.moved_physical_bytes = 0
        self.makespan_us = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "tasks": len(self.tasks),
            "moved_pages": self.moved_pages,
            "catchup_pages": self.catchup_pages,
            "moved_logical_bytes": self.moved_logical_bytes,
            "moved_physical_bytes": self.moved_physical_bytes,
            "makespan_us": self.makespan_us,
        }


class ClusterRuntime:
    """N real replica groups, range-sharded tables, live migration."""

    def __init__(self, config=None) -> None:
        from repro.api.config import ReproConfig

        self.config = config if config is not None else ReproConfig.from_dict(
            {"cluster": {"shards": 2}}
        )
        if self.config.cluster.shards < 2:
            raise ReproError(
                "ClusterRuntime needs cluster.shards >= 2; use a plain "
                "volume for single-shard setups"
            )
        self.engine = Engine()
        self.metrics = MetricsRegistry()
        self.shards: List[ShardServer] = self._build_shards()
        self.tables: Dict[str, Dict[int, RuntimeChunk]] = {}
        self.chunks: Dict[int, RuntimeChunk] = {}
        self._next_chunk_id = 0
        self._next_page_no = 0
        #: Migration stream tokens: at most ``MIGRATION_STREAMS`` chunk
        #: moves are in flight; further tasks queue FIFO.
        self._streams = Queue(self.engine, "migration-streams")
        for token in range(MIGRATION_STREAMS):
            self._streams.put(token)
        #: Pages and bytes chunk moves copied since the last
        #: :meth:`execute` began (the report it returns).
        self.moved = MigrationReport()

    # ------------------------------------------------------------------ #
    # Shard hosting and storage calls                                     #
    # ------------------------------------------------------------------ #

    def _build_shards(self) -> List[ShardServer]:
        """Build the replica groups this runtime hosts."""
        from repro.api.factory import build_store

        volume_bytes = self.config.store.volume_bytes
        shards = [
            ShardServer(
                i,
                build_store(self.config, seed_offset=1000 * i),
                logical_capacity=volume_bytes,
                physical_capacity=int(volume_bytes * PHYSICAL_FRACTION),
            )
            for i in range(self.config.cluster.shards)
        ]
        if self.config.engine.enabled:
            for shard in shards:
                shard.store.bind_engine(
                    self.engine, defer_gc=self.config.engine.defer_gc
                )
        return shards

    def _commit_write(self, shard: ShardServer, page_no: int, image: bytes):
        """Write one page on a shard's volume and wait out its commit:
        the (synchronous, analytic) store call, then a sleep until the
        returned commit instant."""
        engine = self.engine
        committed = shard.store.write_page(engine.now_us, page_no, image)
        if committed.commit_us > engine.now_us:
            yield engine.sleep_until(committed.commit_us)
        return committed

    def _read_page(self, shard: ShardServer, page_no: int):
        """Read one page from a shard's volume and wait out its latency."""
        engine = self.engine
        result = shard.store.read_page(engine.now_us, page_no)
        if result.done_us > engine.now_us:
            yield engine.sleep_until(result.done_us)
        return result

    def _checkpoint_shards(self, start_us: float) -> float:
        """Checkpoint every shard at ``start_us``; returns the latest
        completion."""
        done = start_us
        for shard in self.shards:
            done = max(done, shard.store.checkpoint(start_us))
        return done

    # ------------------------------------------------------------------ #
    # Routing                                                             #
    # ------------------------------------------------------------------ #

    def create_table(self, name: str) -> None:
        if name in self.tables:
            raise ReproError(f"table {name!r} already exists")
        self.tables[name] = {}

    def _chunk_index(self, key: int) -> int:
        return key // CHUNK_KEYS

    def _chunk_for(self, table: str, key: int, create: bool) -> RuntimeChunk:
        if table not in self.tables:
            raise ReproError(f"no such table {table!r}")
        index = self._chunk_index(key)
        chunks = self.tables[table]
        chunk = chunks.get(index)
        if chunk is None:
            if not create:
                raise ReproError(f"key {key} not found in {table!r}")
            chunk = self._create_chunk(
                table, index, self._place_new_chunk().shard_id
            )
        return chunk

    def _create_chunk(
        self, table: str, index: int, shard_id: int
    ) -> RuntimeChunk:
        """Materialize one chunk at a decided placement."""
        chunk = RuntimeChunk(
            self._next_chunk_id,
            table,
            index * CHUNK_KEYS,
            (index + 1) * CHUNK_KEYS,
            shard_id,
        )
        self._next_chunk_id += 1
        self.tables[table][index] = chunk
        self.chunks[chunk.chunk_id] = chunk
        self.shards[shard_id].chunks[chunk.chunk_id] = chunk
        return chunk

    def _place_new_chunk(self) -> ShardServer:
        """Logical-only placement (the original §4.2.1 strategy): the
        imbalance the schedulers fix emerges from here."""
        full_chunk = CHUNK_KEYS * DB_PAGE_SIZE
        candidates = [
            s
            for s in self.shards
            if (s.logical_used + full_chunk)
            <= USAGE_LIMIT * s.logical_capacity
        ]
        if not candidates:
            raise SchedulingError(
                "all shards above the usage limit: add storage servers"
            )
        return min(candidates, key=lambda s: s.logical_used)

    def owner(self, chunk: RuntimeChunk) -> ShardServer:
        return self.shards[chunk.shard_id]

    # ------------------------------------------------------------------ #
    # Data path (engine processes + synchronous wrappers)                 #
    # ------------------------------------------------------------------ #

    def insert_proc(self, table: str, key: int, value: bytes):
        result = yield from self._write_proc(table, key, value, create=True)
        return result

    def update_proc(self, table: str, key: int, value: bytes):
        chunk = self._chunk_for(table, key, create=False)
        if key not in chunk.rows:
            raise ReproError(f"update of missing key {key}")
        result = yield from self._write_proc(table, key, value, create=False)
        return result

    def delete_proc(self, table: str, key: int):
        engine = self.engine
        while True:
            chunk = self._chunk_for(table, key, create=False)
            if chunk.state is not ChunkState.CUTOVER:
                break
            yield chunk.gate
        if key not in chunk.rows:
            raise ReproError(f"delete of missing key {key}")
        page_no = chunk.rows.pop(key)
        shard = self.owner(chunk)
        shard.store.drop_page(page_no)
        if chunk.state is ChunkState.MIGRATING:
            chunk.dirty.add(key)
            chunk.deleted[key] = page_no
        return OpResult(engine.now_us, 0, 0)

    def select_proc(self, table: str, key: int):
        engine = self.engine
        chunk = self._chunk_for(table, key, create=False)
        page_no = chunk.rows.get(key)
        if page_no is None:
            return OpResult(engine.now_us, 0, 0, None)
        result = yield from self._read_page(self.owner(chunk), page_no)
        _, value = decode_row_page(result.data)
        return OpResult(engine.now_us, result.io_reads, 0, value)

    def range_select_proc(self, table: str, low: int, high: int):
        """Point-read every key in [low, high] (chunk-range pruned)."""
        engine = self.engine
        if table not in self.tables:
            raise ReproError(f"no such table {table!r}")
        parts: List[bytes] = []
        reads = 0
        for index in range(
            self._chunk_index(low), self._chunk_index(high) + 1
        ):
            chunk = self.tables[table].get(index)
            if chunk is None:
                continue
            for key in sorted(chunk.rows):
                if low <= key <= high:
                    result = yield from self.select_proc(table, key)
                    reads += result.io_reads
                    if result.value is not None:
                        parts.append(result.value)
        return OpResult(engine.now_us, reads, 0, b"".join(parts))

    def _write_proc(self, table: str, key: int, value: bytes, create: bool):
        engine = self.engine
        while True:
            chunk = self._chunk_for(table, key, create=create)
            if chunk.state is not ChunkState.CUTOVER:
                break
            # The chunk is mid-cutover: wait for the flip, then re-route
            # (the chunk now lives on the target shard).
            yield chunk.gate
        page_no = chunk.rows.get(key)
        if page_no is None:
            page_no = self._next_page_no
            self._next_page_no += 1
        image = encode_row_page(key, value)
        shard = self.owner(chunk)
        chunk.in_flight += 1
        try:
            committed = yield from self._commit_write(shard, page_no, image)
            chunk.rows[key] = page_no
            chunk.deleted.pop(key, None)
            if chunk.state in (ChunkState.MIGRATING, ChunkState.CUTOVER):
                # Page-granular redo for the catch-up / final-drain
                # phases.  A write can legitimately observe CUTOVER here:
                # it passed the gate while the copy was still running and
                # committed on the source while the daemon waits for the
                # chunk to quiesce — journaling it keeps it in the final
                # drain, so the acknowledged bytes reach the target.
                chunk.dirty.add(key)
        finally:
            chunk.in_flight -= 1
            if chunk.in_flight == 0 and chunk.quiesce is not None:
                quiesce, chunk.quiesce = chunk.quiesce, None
                quiesce.succeed(engine.now_us)
        return OpResult(
            engine.now_us, 0, committed.prepared.device_bytes
        )

    # -- synchronous wrappers (one op = one engine run) --------------------

    def _run(self, gen) -> OpResult:
        return self.engine.run(gen)

    def insert(self, now_us: float, table: str, key: int, value: bytes):
        self.engine.advance_to(now_us)
        return self._run(self.insert_proc(table, key, value))

    def update(self, now_us: float, table: str, key: int, value: bytes):
        self.engine.advance_to(now_us)
        return self._run(self.update_proc(table, key, value))

    def delete(self, now_us: float, table: str, key: int):
        self.engine.advance_to(now_us)
        return self._run(self.delete_proc(table, key))

    def select(self, now_us: float, table: str, key: int, ro_index: int = -1):
        self.engine.advance_to(now_us)
        return self._run(self.select_proc(table, key))

    def range_select(self, now_us: float, table: str, low: int, high: int):
        self.engine.advance_to(now_us)
        return self._run(self.range_select_proc(table, low, high))

    def bulk_load(
        self, now_us: float, table: str, rows: Iterable[Tuple[int, bytes]]
    ) -> float:
        self.engine.advance_to(now_us)
        for key, value in rows:
            self._run(self.insert_proc(table, key, value))
        return self.engine.now_us

    def checkpoint(self, now_us: float) -> float:
        self.engine.advance_to(now_us)
        done = max(now_us, self._checkpoint_shards(self.engine.now_us))
        self.engine.advance_to(done)
        return done

    # ------------------------------------------------------------------ #
    # Live migration                                                      #
    # ------------------------------------------------------------------ #

    def migrate_chunk_proc(self, chunk_id: int, target_id: int):
        """Engine daemon: move one chunk with copy, catch-up, cutover."""
        engine = self.engine
        chunk = self.chunks.get(chunk_id)
        if chunk is None:
            raise SchedulingError(f"chunk {chunk_id} not found")
        if chunk.shard_id == target_id:
            raise SchedulingError(f"chunk {chunk_id} already on target")
        if chunk.state is not ChunkState.SERVING:
            raise SchedulingError(
                f"chunk {chunk_id} already migrating"
            )
        token = yield self._streams.get()
        try:
            started = engine.now_us
            source = self.shards[chunk.shard_id]
            target = self.shards[target_id]
            source_id = chunk.shard_id
            chunk.state = ChunkState.MIGRATING
            chunk.dirty = set()
            chunk.deleted = {}
            rec = recorder_active()
            if rec is not None:
                rec.emit(
                    started, "migration", "started",
                    chunk=chunk.chunk_id, source=source_id,
                    target=target_id, keys=len(chunk.rows),
                )
            # Phase 1: bulk copy of the membership snapshot.
            snapshot = sorted(chunk.rows)
            copied = yield from self._copy_keys(
                chunk, source, target, snapshot, catchup=False
            )
            copy_done = engine.now_us
            # Phase 2: catch-up rounds replay pages dirtied meanwhile.
            rounds = 0
            while chunk.dirty and rounds < MAX_CATCHUP_ROUNDS:
                rounds += 1
                delta = sorted(chunk.dirty)
                chunk.dirty = set()
                yield from self._copy_keys(
                    chunk, source, target, delta, catchup=True
                )
            catchup_done = engine.now_us
            if rec is not None:
                rec.emit(
                    catchup_done, "migration", "catchup_done",
                    chunk=chunk.chunk_id, rounds=rounds, copied=copied,
                )
            # Phase 3: cutover — gate new writers, wait for in-flight
            # source writes to quiesce, then drain the final delta.
            chunk.state = ChunkState.CUTOVER
            chunk.gate = engine.event(f"cutover-{chunk.chunk_id}")
            while chunk.in_flight > 0:
                chunk.quiesce = engine.event(
                    f"quiesce-{chunk.chunk_id}"
                )
                yield chunk.quiesce
            final = sorted(chunk.dirty)
            chunk.dirty = set()
            yield from self._copy_keys(
                chunk, source, target, final, catchup=True
            )
            # Flip ownership, then free every source copy.
            del source.chunks[chunk.chunk_id]
            target.chunks[chunk.chunk_id] = chunk
            chunk.shard_id = target_id
            for page_no in sorted(chunk.rows.values()):
                source.store.drop_page(page_no)
            chunk.deleted = {}
            chunk.state = ChunkState.SERVING
            gate, chunk.gate = chunk.gate, None
            gate.succeed(engine.now_us)
            ended = engine.now_us
            if rec is not None:
                rec.emit(
                    ended, "migration", "cutover_done",
                    chunk=chunk.chunk_id, source=source_id,
                    target=target_id,
                    total_us=round(ended - started, 3),
                )
            self._trace_migration(started, copy_done, catchup_done, ended)
            return copied
        finally:
            self._streams.put(token)

    def _trace_migration(
        self,
        started: float,
        copy_done: float,
        catchup_done: float,
        ended: float,
    ) -> None:
        """Retrospective spans for one completed migration.

        A migration daemon yields through dozens of engine waits, so an
        ambient span cannot stay open across its lifetime; instead the
        phase boundary timestamps are captured as the daemon runs and the
        whole trace is emitted synchronously here, at completion.  The
        child phases tile the root exactly, so the per-layer exclusive
        times keep summing to the end-to-end simulated latency.
        """
        tracer = self.metrics.tracer
        root = tracer.begin("cluster.migrate_chunk", started, layer="cluster")
        sp = tracer.begin("cluster.migrate.copy", started, layer="cluster")
        tracer.end(sp, copy_done)
        sp = tracer.begin(
            "cluster.migrate.catchup", copy_done, layer="cluster"
        )
        tracer.end(sp, catchup_done)
        sp = tracer.begin(
            "cluster.migrate.cutover", catchup_done, layer="cluster"
        )
        tracer.end(sp, ended)
        tracer.end(root, ended)

    def _copy_keys(
        self,
        chunk: RuntimeChunk,
        source: ShardServer,
        target: ShardServer,
        keys: List[int],
        catchup: bool,
    ):
        """Copy the given keys' pages source -> target, real bytes."""
        copied = 0
        for key in keys:
            page_no = chunk.rows.get(key)
            if page_no is None:
                # Deleted since it was journaled: if an earlier copy pass
                # already landed the page on the target, drop that copy so
                # the delete survives the cutover.
                stale = chunk.deleted.pop(key, None)
                if stale is not None:
                    target.store.drop_page(stale)
                continue
            read = yield from self._read_page(source, page_no)
            committed = yield from self._commit_write(
                target, page_no, read.data
            )
            copied += 1
            moved = self.moved
            moved.moved_pages += 1
            if catchup:
                moved.catchup_pages += 1
            moved.moved_logical_bytes += DB_PAGE_SIZE
            moved.moved_physical_bytes += committed.prepared.device_bytes
        return copied

    # ------------------------------------------------------------------ #
    # Scheduling bridge                                                   #
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Tuple[Cluster, Dict[int, int]]:
        """Mirror the fleet onto the abstract logical x physical plane
        with *measured* sizes (every physical byte is codec output)."""
        abstract = Cluster(servers=[], usage_limit=USAGE_LIMIT)
        owner: Dict[int, int] = {}
        for shard in self.shards:
            mirror = StorageServer(
                shard.shard_id,
                logical_capacity=shard.logical_capacity,
                physical_capacity=shard.physical_capacity,
            )
            for chunk in shard.chunks.values():
                if not chunk.rows:
                    continue
                mirror.add_chunk(
                    Chunk(
                        chunk.chunk_id,
                        chunk.logical_bytes,
                        max(1.0, shard.chunk_ratio(chunk)),
                    )
                )
                owner[chunk.chunk_id] = shard.shard_id
            abstract.servers.append(mirror)
        return abstract, owner

    def zone_occupancy(self) -> Dict[str, int]:
        """Shards per zone (A/B/C/D) on the logical x physical plane."""
        scheduler = CompressionAwareScheduler()
        abstract, _ = self.snapshot()
        c_avg = abstract.average_compression_ratio
        c_l, c_h = scheduler.band(abstract)
        occupancy = {"A": 0, "B": 0, "C": 0, "D": 0}
        for server in abstract.servers:
            occupancy[scheduler.zone(server, c_l, c_h, c_avg)] += 1
        return occupancy

    def rebalance(self, scheduler=None) -> MigrationReport:
        """Plan on the measured snapshot, then execute the plan as
        concurrent migration daemons on the engine."""
        scheduler = scheduler or CompressionAwareScheduler()
        abstract, _ = self.snapshot()
        tasks = scheduler.rebalance(abstract)
        return self.execute(tasks)

    def execute(self, tasks: List[MigrationTask]) -> MigrationReport:
        report = self.moved = MigrationReport()
        report.tasks = list(tasks)
        started = self.engine.now_us
        # A plan is a sequence of moves on the mirror and may relocate the
        # same chunk more than once (chained A->B->C moves); physically we
        # execute only the net move, straight to each chunk's final target.
        net: Dict[int, int] = {}
        for task in tasks:
            net[task.chunk_id] = task.target_id
        procs = [
            self.engine.spawn(
                self.migrate_chunk_proc(chunk_id, target_id),
                name=f"migrate-{chunk_id}",
            )
            for chunk_id, target_id in net.items()
            if self.chunks[chunk_id].shard_id != target_id
        ]
        self.engine.run_until_complete(procs)
        report.makespan_us = self.engine.now_us - started
        return report

    # ------------------------------------------------------------------ #
    # Fleet-level accounting                                              #
    # ------------------------------------------------------------------ #

    def wasted_fractions(self) -> Tuple[float, float]:
        """(wasted logical, wasted physical) fractions at the usage
        limit, computed from measured per-shard ratios (Fig 10/11)."""
        abstract, _ = self.snapshot()
        return (
            abstract.wasted_logical_fraction(),
            abstract.wasted_physical_fraction(),
        )

    def verify_readable(self, expected: Dict[Tuple[str, int], bytes]) -> int:
        """Assert every acknowledged row is byte-exact readable; returns
        the number of rows checked (the cutover-loses-nothing check)."""
        checked = 0
        for (table, key), value in sorted(expected.items()):
            result = self._run(self.select_proc(table, key))
            if result.value != value:
                raise ReproError(
                    f"row {table!r}:{key} lost or corrupt after migration"
                )
            checked += 1
        return checked

    def compression_ratio(self) -> float:
        logical = sum(s.logical_used for s in self.shards)
        physical = sum(s.physical_used for s in self.shards)
        if physical == 0:
            return 1.0
        return logical / physical


__all__ = [
    "ChunkState",
    "ClusterRuntime",
    "MigrationReport",
    "RuntimeChunk",
    "ShardServer",
    "decode_row_page",
    "encode_row_page",
]
