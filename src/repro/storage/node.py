"""The PolarStore storage node.

One node owns a data device (PolarCSD or plain SSD), a performance device
(Optane, holding the WAL and — with Opt#1 — redo logs), the two-level
allocator, the page index, a redo-log cache with spill-to-storage, and the
page consolidation machinery.

Timing model: every public operation takes the simulated start time and
returns a result carrying ``done_us``.  CPU costs (codec work, record
application) come from the calibrated cost models; device time comes from
the device simulators' queues.  Once :meth:`StorageNode.bind_engine`
attaches the node to a shared :class:`repro.engine.Engine`, the redo
persistence path is additionally available as an engine process
(:meth:`StorageNode.persist_redo_proc`) that really queues on the device
FIFO — the building block of the volume-level group-commit pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.checksum import crc32
from repro.common.errors import (
    ChecksumError,
    CorruptionError,
    DeviceError,
    DeviceUnavailableError,
    PageCorruptionError,
    ReproError,
)
from repro.common.units import DB_PAGE_SIZE, LBA_SIZE, MiB, align_up, ceil_div
from repro.compression import memo
from repro.compression.base import get_codec
from repro.compression.cost import codec_cost
from repro.compression.selector import AlgorithmSelector
from repro.csd.device import BlockDevice
from repro.obs.metrics import MetricsRegistry
from repro.storage.allocator import SpaceManager
from repro.storage.heavy import HeavySegmentStore
from repro.storage.index import CompressionInfo, IndexEntry, PageIndex
from repro.storage.perpage_log import PerPageLogStore, ScatteredLogStore
from repro.storage.redo import RedoRecord, apply_records, decode_records
from repro.storage.wal import WriteAheadLog

#: Codec for writes that skip Algorithm 1 (Opt#2 off).
DEFAULT_CODEC = "zstd"

#: CPU cost of applying one redo record during consolidation (µs).
REDO_APPLY_US_PER_RECORD = 0.3

#: Shared zero block for WAL flush writes (was allocated per flush).
_ZERO_LBA = b"\x00" * LBA_SIZE

#: CompressionInfo <-> WAL wire ids.
_STATUS_IDS = {
    CompressionInfo.UNCOMPRESSED: 0,
    CompressionInfo.NORMAL: 1,
    CompressionInfo.HEAVY: 2,
}
STATUS_FROM_ID = {v: k for k, v in _STATUS_IDS.items()}


@dataclass
class NodeConfig:
    """Feature switches matching the paper's cluster configurations.

    ``software_compression=False`` with a PolarCSD data device reproduces
    cluster C1 (hardware-only compression); all-enabled reproduces C2.
    """

    software_compression: bool = True
    opt_bypass_redo: bool = True          # Opt#1 (§3.3.1)
    opt_algorithm_selection: bool = True  # Opt#2 (§3.3.2)
    opt_per_page_log: bool = True         # Opt#3 (§3.3.3)
    #: Force Algorithm 1 to re-evaluate on every write (the paper's §5.2
    #: evaluation mode: "the update always issues the algorithm
    #: re-selection, representing the worst page write latency").
    selection_always_evaluate: bool = False
    redo_cache_bytes: int = 2 * MiB


@dataclass(frozen=True)
class PreparedWrite:
    """A page after leader-side software compression, ready to replicate."""

    status: CompressionInfo
    algorithm: Optional[str]
    payload: bytes
    n_blocks: int
    cpu_us: float
    codec_evaluated: bool = False
    #: CRC-32 of ``payload``, carried into the index entry and verified
    #: on every read (the integrity check lives above the device).
    checksum: int = field(init=False)
    #: Payload padded to the device write size, computed on first use and
    #: shared by every replica that persists this prepared write (the
    #: leader prepares once, all three nodes used to re-pad).
    _padded: Optional[bytes] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "checksum", crc32(self.payload))

    @classmethod
    def raw(cls, data: bytes, cpu_us: float = 0.0) -> "PreparedWrite":
        """``data`` stored uncompressed in whole blocks — at least one:
        neither the index nor the device has a zero-block extent."""
        return cls(
            CompressionInfo.UNCOMPRESSED, None, data,
            max(1, ceil_div(len(data), LBA_SIZE)), cpu_us,
        )

    @property
    def device_bytes(self) -> int:
        return self.n_blocks * LBA_SIZE

    def padded_payload(self) -> bytes:
        """``payload`` zero-padded to ``device_bytes``, cached."""
        if self._padded is None:
            pad = self.device_bytes - len(self.payload)
            object.__setattr__(
                self,
                "_padded",
                self.payload if pad == 0 else self.payload + b"\x00" * pad,
            )
        return self._padded


@dataclass(frozen=True)
class WriteResult:
    done_us: float
    prepared: PreparedWrite


@dataclass(frozen=True)
class ReadResult:
    data: bytes
    done_us: float
    io_reads: int
    cpu_us: float
    consolidated: bool = False


class StorageNode:
    """One storage server of the shared-storage layer."""

    #: Redo batches kept live on the data device before recycling
    #: (non-bypass mode); redo is reclaimable once pages are flushed.
    REDO_DATA_BLOCK_WINDOW = 256

    def __init__(
        self,
        name: str,
        config: NodeConfig,
        data_device: BlockDevice,
        perf_device: BlockDevice,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name
        self.config = config
        self.data_device = data_device
        self.perf_device = perf_device
        #: Shared with the owning volume when built via ``build_node``;
        #: a standalone node gets a private registry so instrumentation
        #: never needs a None check.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.space = SpaceManager(data_device.spec.logical_capacity)
        self.index = PageIndex()
        self.wal = WriteAheadLog()
        self.selector = AlgorithmSelector(
            update_gate=-1.0 if config.selection_always_evaluate else 0.30,
            metrics=self.metrics,
        )
        # Redo machinery.  The cache and its byte counts (per page, and
        # their total) change together, through _stage_redo / _pop_redo.
        self.redo_cache: Dict[int, List[RedoRecord]] = {}
        self._redo_page_bytes: Dict[int, int] = {}
        self._redo_cache_bytes = 0
        self._last_algorithm: Dict[int, str] = {}
        #: Where evicted redo spills: Opt#3's per-page log, or the
        #: scattered baseline Fig 15 measures it against.
        self.log_store = (
            PerPageLogStore(data_device, self.space)
            if config.opt_per_page_log
            else ScatteredLogStore(data_device, self.space)
        )
        self.heavy = HeavySegmentStore(data_device, self.space)
        # Performance-device LBA cursors (WAL area, redo area).
        self._perf_cursor = 0
        # Redo batches stored on the data device (non-bypass mode only).
        self._redo_data_blocks: List[Tuple[int, int]] = []
        # Current 16 KB redo log-buffer window (non-bypass compression).
        self._redo_log_window = bytearray()
        # Durably-persisted redo batches (what recovery replays).
        self.durable_redo_blobs: List[bytes] = []
        # Stats: histogram-backed bounded series (the seed used unbounded
        # raw lists here), plus event counters for the registry.
        labels = {"node": name}
        self.redo_write_stats = self.metrics.series(
            "storage.redo_write_us", **labels
        )
        self.page_read_stats = self.metrics.series(
            "storage.page_read_us", **labels
        )
        self.page_write_stats = self.metrics.series(
            "storage.page_write_us", **labels
        )
        self._wal_flushes = self.metrics.counter(
            "storage.wal_flushes", **labels
        )
        self._consolidations = self.metrics.counter(
            "storage.consolidations", **labels
        )
        self._redo_spills = self.metrics.counter(
            "storage.redo_spills", **labels
        )
        self.metrics.gauge_fn(
            "storage.redo_cache_bytes",
            lambda: self._redo_cache_bytes, **labels
        )
        self.metrics.gauge_fn(
            "storage.logical_used_bytes_node",
            lambda: self.logical_used_bytes, **labels
        )
        #: Shared discrete-event kernel once bind_engine() is called.
        self._sim_engine = None

    def bind_engine(self, engine, defer_gc: bool = False) -> None:
        """Attach this node's device queues to a shared event kernel.

        ``defer_gc`` moves the data device's FTL relocation cost to a
        background GC process (see :meth:`BlockDevice.gc_proc`).
        """
        self._sim_engine = engine
        self.data_device.bind_engine(engine, defer_gc=defer_gc)
        self.perf_device.bind_engine(engine)

    # ------------------------------------------------------------------ #
    # Page write path                                                     #
    # ------------------------------------------------------------------ #

    def prepare_page(
        self, page_no: int, data: bytes, update_percent: float = 1.0
    ) -> PreparedWrite:
        """Leader-side software compression (step 1 of Figure 4).

        ``update_percent`` is the share of the page changed since its
        last selection: a fresh write is 1.0, a consolidation passes its
        redo volume (Algorithm 1's update gate)."""
        if len(data) != DB_PAGE_SIZE or not self.config.software_compression:
            return PreparedWrite.raw(data)
        if self.config.opt_algorithm_selection:
            decision = self.selector.select(
                data,
                update_percent=update_percent,
                last_used=self._last_algorithm.get(page_no),
            )
            codec_name = decision.codec
            payload = decision.result.payload
            evaluated = decision.evaluated
        else:
            codec_name = DEFAULT_CODEC
            payload = memo.compress(codec_name, data)
            evaluated = False
        cpu = codec_cost(codec_name).compress_us(len(data))
        if evaluated:
            # Evaluation compressed with *both* codecs (Algorithm 1).
            other = "zstd" if codec_name == "lz4" else "lz4"
            cpu += codec_cost(other).compress_us(len(data))

        n_blocks = ceil_div(len(payload), LBA_SIZE)
        if n_blocks * LBA_SIZE >= DB_PAGE_SIZE:
            # Compression did not save a single block: store raw.
            return PreparedWrite.raw(data, cpu)
        self._last_algorithm[page_no] = codec_name
        return PreparedWrite(
            CompressionInfo.NORMAL, codec_name, payload, n_blocks, cpu,
            evaluated,
        )

    def write_page_local(
        self,
        start_us: float,
        page_no: int,
        prepared: PreparedWrite,
        applied_lsn: int = 0,
    ) -> WriteResult:
        """Persist a prepared page on this node (steps 3.1–3.3 of Fig 4)."""
        if not prepared.payload:
            # The index has no entry for zero bytes; refuse before the
            # allocator, the device and the WAL have each recorded one.
            raise ReproError("empty page write")
        # A rewrite supersedes everything folded in so far: carry the
        # page's redo high-water mark forward so recovery never replays
        # stale records over newer content.
        previous = self.index.get(page_no)
        if previous is not None:
            applied_lsn = max(applied_lsn, previous.applied_lsn)
        lba = self.space.allocate_blocks(prepared.device_bytes)
        padded = prepared.padded_payload()
        tracer = self.metrics.tracer
        node_sp = tracer.begin("storage.node_write", start_us, layer="storage")
        dev_sp = tracer.begin("csd.device_write", start_us, layer="csd")
        completion = self.data_device.write(start_us, lba, padded)
        tracer.end(dev_sp, completion.done_us)
        self.wal.append_alloc(lba, prepared.n_blocks)
        self.wal.append_index_put(
            page_no, lba, prepared.n_blocks, len(prepared.payload),
            status=_STATUS_IDS[prepared.status],
            algorithm=prepared.algorithm,
            applied_lsn=applied_lsn,
            checksum=prepared.checksum,
        )
        wal_sp = tracer.begin(
            "storage.wal_flush", completion.done_us, layer="storage"
        )
        done = self._persist_wal(completion.done_us)
        tracer.end(wal_sp, done)
        tracer.end(node_sp, done)

        old = self.index.put(
            page_no,
            IndexEntry(
                prepared.status,
                prepared.algorithm,
                lba,
                prepared.n_blocks,
                len(prepared.payload),
                applied_lsn=applied_lsn,
                checksum=prepared.checksum,
            ),
        )
        self._release_entry(old)
        self.page_write_stats.append(done - start_us + prepared.cpu_us)
        return WriteResult(done, prepared)

    def write_page(
        self, start_us: float, page_no: int, data: bytes
    ) -> WriteResult:
        """Single-node convenience: prepare + persist locally."""
        prepared = self.prepare_page(page_no, data)
        return self.write_page_local(start_us + prepared.cpu_us, page_no, prepared)

    def write_partial(
        self, start_us: float, page_no: int, offset: int, data: bytes
    ) -> WriteResult:
        """Non-page-aligned write into a previously written page (§3.2.3).

        Per the no-compression mode's rule: the existing compressed data
        is read and decompressed, the new bytes are spliced in, and the
        result is written back *uncompressed* (the range is now in
        no-compression mode until a full page write re-compresses it).
        """
        if offset < 0 or offset + len(data) > DB_PAGE_SIZE:
            raise ReproError(
                f"partial write [{offset}, +{len(data)}) outside page bounds"
            )
        if not data:
            raise ReproError("empty partial write")
        entry = self.index.get(page_no)
        if entry is None:
            base = ReadResult(bytes(DB_PAGE_SIZE), start_us, 0, 0.0)
        else:
            base = self._read_materialized(start_us, page_no)
        image = bytearray(base.data)
        image[offset : offset + len(data)] = data
        return self.write_page_local(
            base.done_us, page_no, PreparedWrite.raw(bytes(image))
        )

    def _release_entry(self, entry: Optional[IndexEntry]) -> None:
        if entry is None:
            return
        if entry.status is CompressionInfo.HEAVY:
            self._maybe_release_segment(entry.segment_id)
            return
        self.wal.append_free(entry.lba, entry.n_blocks)
        self.space.free_blocks(entry.lba, entry.n_blocks * LBA_SIZE)
        self.data_device.trim(entry.lba, entry.n_blocks * LBA_SIZE)

    def _maybe_release_segment(self, segment_id: int) -> None:
        """Free a heavy segment once no index entry references it."""
        for _, entry in self.index.items():
            if entry.segment_id == segment_id:
                return
        try:
            meta = self.heavy.get(segment_id)
        except ReproError:
            return  # already released
        for piece_lba, piece_blocks in meta.pieces:
            self.wal.append_free(piece_lba, piece_blocks)
        self.heavy.release(segment_id)

    def drop_page(self, page_no: int) -> None:
        """Forget one materialized page: index entry (WAL-logged so
        recovery agrees), device blocks (TRIMmed), cached redo.  A page
        this node holds no image of is left alone."""
        entry = self.index.remove(page_no)
        if entry is None:
            return
        self.wal.append_index_remove(page_no)
        self._release_entry(entry)
        self._pop_redo(page_no)

    # ------------------------------------------------------------------ #
    # Page read path                                                      #
    # ------------------------------------------------------------------ #

    def read_page(self, start_us: float, page_no: int) -> ReadResult:
        """Read and decompress one page, applying pending redo if any."""
        tracer = self.metrics.tracer
        root = tracer.begin("storage.page_read", start_us, layer="storage")
        pending = self.redo_cache.get(page_no) or []
        spilled = self.log_store.blocks_for(page_no) > 0
        try:
            if not pending and not spilled:
                result = self._read_materialized(start_us, page_no)
            else:
                result = self._consolidate_and_read(start_us, page_no)
        except Exception:
            tracer.abandon(root)
            raise
        tracer.end(root, result.done_us)
        self.page_read_stats.append(result.done_us - start_us)
        return result

    def _read_materialized(self, start_us: float, page_no: int) -> ReadResult:
        entry = self.index.get(page_no)
        if entry is None:
            raise ReproError(f"{self.name}: page {page_no} does not exist")
        tracer = self.metrics.tracer

        def corrupt(symptom: str, detail: str) -> PageCorruptionError:
            return PageCorruptionError(
                f"{self.name}: page {page_no} {detail}",
                node=self.name, page_no=page_no, lba=entry.lba,
                n_blocks=entry.n_blocks, symptom=symptom,
            )

        if entry.status is CompressionInfo.HEAVY:
            sp = tracer.begin("storage.heavy_read", start_us, layer="storage")
            try:
                data, done, cpu = self.heavy.read_page(
                    start_us, entry.segment_id, entry.page_in_segment
                )
            except DeviceUnavailableError:
                raise
            except (ChecksumError, CorruptionError, DeviceError) as exc:
                tracer.end(sp, start_us)
                raise corrupt(
                    "segment_corrupt", f"archived copy is corrupt: {exc}"
                ) from exc
            tracer.end(sp, done + cpu)
            return ReadResult(data, done + cpu, 1, cpu)
        dev_sp = tracer.begin("csd.device_read", start_us, layer="csd")
        try:
            completion = self.data_device.read(
                start_us, entry.lba, entry.n_blocks * LBA_SIZE
            )
        except DeviceUnavailableError:
            raise
        except DeviceError as exc:
            tracer.end(dev_sp, start_us)
            raise corrupt("unreadable", f"device read failed: {exc}") from exc
        tracer.end(dev_sp, completion.done_us)
        raw = completion.data
        if entry.payload_len == len(raw):
            payload = raw
        else:
            # A ``bytes`` slice, not a view: the lz4 decoder indexes its
            # input per token, which is measurably slower through a
            # ``memoryview`` than this one copy costs.
            payload = raw[: entry.payload_len]
        if entry.checksum and crc32(payload) != entry.checksum:
            raise corrupt(
                "checksum_mismatch", "stored payload fails CRC verification"
            )
        cpu = 0.0
        if entry.status is CompressionInfo.NORMAL:
            try:
                data = get_codec(entry.algorithm).decompress(payload)
            except CorruptionError as exc:
                raise corrupt(
                    "decompress_error", f"payload does not decompress: {exc}"
                ) from exc
            cpu = codec_cost(entry.algorithm).decompress_us(
                entry.n_blocks * LBA_SIZE
            )
            if len(data) != DB_PAGE_SIZE:
                raise corrupt(
                    "decompress_error",
                    f"decompressed to {len(data)} bytes",
                )
            sp = tracer.begin(
                "compression.decompress", completion.done_us,
                layer="compression",
            )
            tracer.end(sp, completion.done_us + cpu)
        else:
            # Uncompressed pages fill their blocks exactly, so this is
            # normally ``raw`` itself; materialize the rare trimmed view.
            data = payload if isinstance(payload, bytes) else bytes(payload)
        return ReadResult(data, completion.done_us + cpu, 1, cpu)

    # ------------------------------------------------------------------ #
    # Detect & repair                                                     #
    # ------------------------------------------------------------------ #

    def repair_page(
        self, start_us: float, page_no: int, data: bytes, applied_lsn: int = 0
    ) -> WriteResult:
        """Overwrite a corrupt local copy with a known-good page image.

        The image came from a healthy replica, so it supersedes whatever
        this node holds: any pending redo for the page (already folded
        into ``data`` by the healthy replica) and the bad on-device blocks
        (released by the index overwrite).
        """
        self._pop_redo(page_no)
        self.log_store.discard(page_no)
        prepared = self.prepare_page(page_no, data)
        return self.write_page_local(
            start_us + prepared.cpu_us, page_no, prepared,
            applied_lsn=applied_lsn,
        )

    # ------------------------------------------------------------------ #
    # Redo path                                                           #
    # ------------------------------------------------------------------ #

    def _prepare_redo(self, start_us: float, blob: bytes, trace: bool = True):
        """Shared redo-placement logic: pick the device, compress the log
        window (non-bypass mode), and allocate the target LBA.  Returns
        ``(device, lba, padded_payload, cpu_us)``.

        With Opt#1 the blob goes raw to the performance device.  Without
        it, the software layer compresses the redo writer's current 16 KB
        log-buffer window (redo is written in page-sized log blocks, so
        each commit re-compresses the tail block) and writes it to the
        data device — the 59 µs → 79 µs regression of Figure 13c.
        """
        tracer = self.metrics.tracer
        if self.config.opt_bypass_redo:
            device = self.perf_device
            payload = blob
            cpu = 0.0
        else:
            device = self.data_device
            if self.config.software_compression:
                # Redo is latency-critical: the software layer uses the
                # fast codec, but must compress the whole current log
                # block (16 KB window), not just this batch's bytes.
                self._redo_log_window += blob
                if len(self._redo_log_window) > DB_PAGE_SIZE:
                    del self._redo_log_window[: len(self._redo_log_window)
                                             - DB_PAGE_SIZE]
                # Every replica compresses the same window content; the
                # memo collapses those to one codec run.
                payload = memo.compress("lz4", self._redo_log_window)
                cpu = codec_cost("lz4").compress_us(DB_PAGE_SIZE)
            else:
                payload = blob
                cpu = 0.0
        if cpu > 0.0 and trace:
            sp = tracer.begin(
                "compression.redo_compress", start_us, layer="compression"
            )
            tracer.end(sp, start_us + cpu)
        nbytes = align_up(max(len(payload), 1), LBA_SIZE)
        padded = (
            payload if nbytes == len(payload)
            else payload + b"\x00" * (nbytes - len(payload))
        )
        if device is self.perf_device:
            lba = self._next_perf_lba(nbytes)
        else:
            lba = self.space.allocate_blocks(nbytes)
            self.wal.append_alloc(lba, nbytes // LBA_SIZE)
            self._track_redo_block(lba, nbytes)
        return device, lba, padded, cpu

    @property
    def durable_lsn(self) -> int:
        """Highest LSN among the durably persisted redo batches (0: none)."""
        return max(
            (r.lsn for blob in self.durable_redo_blobs
             for r in decode_records(blob)),
            default=0,
        )

    def _finish_redo(self, start_us: float, done_us: float, blob: bytes) -> None:
        self.durable_redo_blobs.append(blob)
        self.redo_write_stats.append(done_us - start_us)

    def persist_redo(self, start_us: float, blob: bytes) -> float:
        """Durably store a redo batch; returns completion time."""
        tracer = self.metrics.tracer
        device, lba, padded, cpu = self._prepare_redo(start_us, blob)
        dev_sp = tracer.begin(
            "csd.redo_device_write", start_us + cpu, layer="csd"
        )
        completion = device.write(start_us + cpu, lba, padded)
        tracer.end(dev_sp, completion.done_us)
        self._finish_redo(start_us, completion.done_us, blob)
        return completion.done_us

    def persist_redo_proc(self, blob: bytes, trace: bool = True):
        """Engine process: persist a redo batch, really queueing FIFO on
        the target device behind concurrent requests.  Requires
        :meth:`bind_engine`.  Returns the completion time.

        ``trace=False`` mirrors the synchronous path's span suppression
        for replica persists.  Spans are emitted retrospectively (after
        the write completes, with simulated timestamps) because the
        tracer's ambient span stack must never be held open across an
        engine yield — concurrent processes would interleave into it.
        """
        engine = self._sim_engine
        start_us = engine.now_us
        device, lba, padded, cpu = self._prepare_redo(
            start_us, blob, trace=trace
        )
        if cpu > 0.0:
            yield engine.timeout(cpu)
        write_start = engine.now_us
        completion = yield from device.write_proc(lba, padded)
        if trace:
            tracer = self.metrics.tracer
            dev_sp = tracer.begin(
                "csd.redo_device_write", write_start, layer="csd"
            )
            tracer.end(dev_sp, completion.done_us)
        self._finish_redo(start_us, completion.done_us, blob)
        return completion.done_us

    def _track_redo_block(self, lba: int, nbytes: int) -> None:
        """Redo on the data device is recycled once pages flush; keep a
        bounded window of live redo blocks."""
        self._redo_data_blocks.append((lba, nbytes))
        while len(self._redo_data_blocks) > self.REDO_DATA_BLOCK_WINDOW:
            old_lba, old_bytes = self._redo_data_blocks.pop(0)
            self.wal.append_free(old_lba, old_bytes // LBA_SIZE)
            self.space.free_blocks(old_lba, old_bytes)
            self.data_device.trim(old_lba, old_bytes)

    def _next_perf_lba(self, nbytes: int) -> int:
        lba = self._perf_cursor
        span = nbytes // LBA_SIZE
        capacity_blocks = self.perf_device.spec.logical_capacity // LBA_SIZE
        if lba + span >= capacity_blocks:
            lba = 0
            self._perf_cursor = 0
        self._perf_cursor += span
        return lba

    def _persist_wal(self, start_us: float) -> float:
        """Flush pending WAL appends as one 4 KB write to the perf device."""
        self._wal_flushes.inc()
        lba = self._next_perf_lba(LBA_SIZE)
        return self.perf_device.write(start_us, lba, _ZERO_LBA).done_us

    def _stage_redo(self, records: Iterable[RedoRecord]) -> None:
        """Cache ``records`` under their pages (a page not yet cached
        joins at the end of the eviction tie-break order)."""
        cache, page_bytes = self.redo_cache, self._redo_page_bytes
        for record in records:
            page_no, nbytes = record.page_no, record.size_bytes
            cache.setdefault(page_no, []).append(record)
            page_bytes[page_no] = page_bytes.get(page_no, 0) + nbytes
            self._redo_cache_bytes += nbytes

    def _pop_redo(self, page_no: int) -> List[RedoRecord]:
        """Remove and return the page's cached redo (``[]`` if none)."""
        self._redo_cache_bytes -= self._redo_page_bytes.pop(page_no, 0)
        return self.redo_cache.pop(page_no, [])

    def add_redo(self, start_us: float, records: List[RedoRecord]) -> float:
        """Cache redo records; spill the overflow to the log store."""
        now = start_us
        self._stage_redo(records)
        while self._redo_cache_bytes > self.config.redo_cache_bytes:
            now = self._evict_one_page(now)
        return now

    def _evict_one_page(self, start_us: float) -> float:
        # Evict the page with the most cached redo bytes (best payoff).
        page_no = max(self._redo_page_bytes, key=self._redo_page_bytes.get)
        if self._would_overflow_page_log(page_no):
            # Too much redo for the 4 KB per-page log slot: consolidate
            # the page instead (the logs fold into the page image).
            result = self._consolidate_and_read(start_us, page_no)
            return result.done_us
        records = self._pop_redo(page_no)
        self._redo_spills.inc()
        try:
            return self.log_store.evict(start_us, records)
        except DeviceUnavailableError:
            # Spill never hit the device; keep the records in memory.
            self._stage_redo(records)
            raise

    def _would_overflow_page_log(self, page_no: int) -> bool:
        capacity = self.log_store.page_capacity_bytes
        if capacity is None:
            # The scattered layout grows per page without bound.
            return False
        pending = self._redo_page_bytes.get(page_no, 0)
        existing = self.log_store.stored_bytes_for(page_no)
        return pending + existing > capacity

    # ------------------------------------------------------------------ #
    # Consolidation                                                       #
    # ------------------------------------------------------------------ #

    def _consolidate_and_read(self, start_us: float, page_no: int) -> ReadResult:
        """Materialize a page that has pending redo (Figure 6)."""
        tracer = self.metrics.tracer
        self._consolidations.inc()
        if self.index.get(page_no) is None:
            # The page exists only as redo so far: start from a zero image.
            base = ReadResult(bytes(DB_PAGE_SIZE), start_us, 0, 0.0)
        else:
            base = self._read_materialized(start_us, page_no)
        now = base.done_us
        io_reads = base.io_reads
        cpu = base.cpu_us

        fetch_sp = tracer.begin("storage.log_fetch", now, layer="storage")
        try:
            fetched = self.log_store.fetch(now, page_no)
        except DeviceUnavailableError:
            raise
        except (ChecksumError, CorruptionError, DeviceError, ValueError) as exc:
            tracer.end(fetch_sp, now)
            raise PageCorruptionError(
                f"{self.name}: page {page_no} evicted redo is corrupt: {exc}",
                node=self.name, page_no=page_no, symptom="log_corrupt",
            ) from exc
        now = fetched.done_us
        tracer.end(fetch_sp, now)
        io_reads += fetched.reads_issued

        # ARIES redo rule: only records newer than the page's high-water
        # mark apply — a full-page rewrite supersedes older redo, which
        # must not be replayed over the fresher image.
        entry = self.index.get(page_no)
        applied = entry.applied_lsn if entry else 0
        records = sorted(
            r
            for r in fetched.records + self.redo_cache.get(page_no, [])
            if r.lsn > applied
        )
        image = apply_records(base.data, records)
        cpu_apply = REDO_APPLY_US_PER_RECORD * len(records)
        apply_sp = tracer.begin("storage.redo_apply", now, layer="storage")
        now += cpu_apply
        tracer.end(apply_sp, now)
        cpu += cpu_apply

        # Write back the materialized page and drop the logs.
        self._pop_redo(page_no)
        self.log_store.discard(page_no)
        # §3.3.2: the database layer estimates the updated fraction from
        # the log size; re-selection only triggers past the 30% gate.
        update_fraction = min(
            1.0, sum(len(r.data) for r in records) / DB_PAGE_SIZE
        )
        # The *read* completes once the image is built; the write-back is
        # background work, so the caller's latency stops at ``now`` and
        # its spans do not belong to this request's trace.
        with tracer.suppressed():
            prepared = self.prepare_page(
                page_no, image, update_percent=update_fraction
            )
            applied_lsn = max((r.lsn for r in records), default=applied)
            try:
                self.write_page_local(
                    now + prepared.cpu_us, page_no, prepared,
                    applied_lsn=applied_lsn,
                )
            except DeviceUnavailableError:
                # The write-back never persisted.  Re-stage the records so
                # this replica is not left silently stale (its old page
                # image still passes its old checksum).
                self._stage_redo(records)
                raise
        return ReadResult(image, now, io_reads, cpu, consolidated=True)

    def consolidate_pending(self, start_us: float) -> float:
        """Background page generation: apply every cached or spilled redo
        record to its page (what storage nodes do continuously up to
        LSN\\ :sub:`min`, §2.1).  Returns the completion time."""
        now = start_us
        pending = set(self.redo_cache) | set(self.log_store.pages_with_logs())
        for page_no in sorted(pending):
            result = self._consolidate_and_read(now, page_no)
            now = result.done_us
        return now

    # ------------------------------------------------------------------ #
    # Heavy compression (archival)                                        #
    # ------------------------------------------------------------------ #

    def archive_range(self, start_us: float, page_nos: List[int]) -> float:
        """Recompress ``page_nos`` as one heavy segment (§3.2.3)."""
        pages: List[bytes] = []
        now = start_us
        for page_no in page_nos:
            result = self.read_page(now, page_no)
            now = result.done_us
            pages.append(result.data)
        meta, now, cpu = self.heavy.archive(now, page_nos, pages)
        now += cpu
        self.wal.append_segment(
            meta.segment_id, meta.compressed_len, meta.pieces, meta.page_nos
        )
        for piece_lba, piece_blocks in meta.pieces:
            self.wal.append_alloc(piece_lba, piece_blocks)
        for position, page_no in enumerate(page_nos):
            old_entry = self.index.get(page_no)
            applied = old_entry.applied_lsn if old_entry else 0
            old = self.index.put(
                page_no,
                IndexEntry(
                    CompressionInfo.HEAVY,
                    None,
                    meta.pieces[0][0],
                    meta.n_blocks,
                    meta.compressed_len,
                    segment_id=meta.segment_id,
                    page_in_segment=position,
                    applied_lsn=applied,
                ),
            )
            self._release_entry(old)
            self.wal.append_index_put(
                page_no, meta.pieces[0][0], meta.n_blocks, meta.compressed_len,
                status=_STATUS_IDS[CompressionInfo.HEAVY],
                algorithm=None,
                applied_lsn=applied,
                segment_id=meta.segment_id,
                page_in_segment=position,
            )
        return self._persist_wal(now)

    # ------------------------------------------------------------------ #
    # Space reporting                                                     #
    # ------------------------------------------------------------------ #

    @property
    def logical_used_bytes(self) -> int:
        return self.index.logical_bytes

    @property
    def device_used_bytes(self) -> int:
        """4 KB-aligned bytes the software layer occupies on the device."""
        return self.space.used_bytes

    @property
    def physical_used_bytes(self) -> int:
        """NAND bytes actually consumed (CSD) or device bytes (plain SSD)."""
        return self.data_device.physical_used_bytes

    def compression_ratio(self) -> float:
        physical = self.physical_used_bytes
        if physical == 0:
            return 1.0
        return self.logical_used_bytes / physical

    def page_stored_bytes(self, page_no: int) -> int:
        """Physical bytes attributable to one page (NAND bytes on a CSD,
        device blocks on a plain SSD; heavy pages share their segment)."""
        entry = self.index.get(page_no)
        if entry is None:
            raise ReproError(f"{self.name}: page {page_no} does not exist")
        if entry.status is CompressionInfo.HEAVY:
            meta = self.heavy.get(entry.segment_id)
            return max(1, meta.stored_bytes // len(meta.page_nos))
        ftl = getattr(self.data_device, "ftl", None)
        if ftl is None:
            return entry.n_blocks * LBA_SIZE
        return sum(
            ftl.stored_length(entry.lba + i) for i in range(entry.n_blocks)
        )
