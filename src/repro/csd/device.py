"""Block devices: PolarCSD (with in-storage compression) and plain SSDs.

All devices expose the same NVMe-shaped interface: 4 KB-aligned reads and
writes addressed by LBA, plus TRIM.  Every operation takes the simulated
start time and returns an :class:`IOCompletion` carrying the finish time;
a per-device FIFO :class:`~repro.engine.Resource` provides queueing so
queue-depth effects emerge naturally.  The same queue serves two call
styles: the synchronous :meth:`~BlockDevice.write`/:meth:`~BlockDevice.read`
adapters (analytic ``serve`` arithmetic, used by legacy entry points and
single-request tests) and the engine-native
:meth:`~BlockDevice.write_proc`/:meth:`~BlockDevice.read_proc` generators
used once :meth:`~BlockDevice.bind_engine` attaches the device to a shared
:class:`repro.engine.Engine` — concurrent requests then really wait in the
per-device FIFO and queue-wait histograms feed ``repro.obs``.

``PolarCSD`` runs every 4 KB logical block through the hardware gzip
engine and places the compressed payload byte-granularly via the FTL.
``PlainSSD`` stores blocks 1:1.  Both keep the actual bytes so the storage
software above can read real data back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.common.errors import DeviceError, OutOfSpaceError, ReproError
from repro.common.latency import LatencyStats
from repro.common.units import KiB, MiB, is_aligned
from repro.compression.memo import hw_compressed_len
from repro.csd.ftl import FTL
from repro.csd.mapping import L2PEntryCodecV1, L2PEntryCodecV2
from repro.csd.specs import DeviceSpec
from repro.engine import Engine, Resource
from repro.obs.events import recorder_active
from repro.obs.metrics import MetricsRegistry

LBA_SIZE = 4 * KiB
#: Simulated µs between two bursts of banked GC work.
GC_PERIOD_US = 500.0


@dataclass(frozen=True)
class IOCompletion:
    """Result of one device command."""

    start_us: float
    done_us: float
    data: Optional[bytes] = None

    @property
    def latency_us(self) -> float:
        return self.done_us - self.start_us


class BlockDevice:
    """Common queueing, jitter, chaos hooks, and stats."""

    def __init__(
        self,
        spec: DeviceSpec,
        seed: int = 0,
        parallelism: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """``parallelism`` models internal channel/striping concurrency
        (or, at node scope, the 10–12 drives a storage server actually
        has); requests beyond it queue FIFO.  ``metrics`` shares a
        registry with the owning node so device latency histograms and
        FTL counters appear in volume-level snapshots."""
        self.spec = spec
        #: Stored content, one entry per written 4 KB LBA.
        self._blocks: Dict[int, bytes] = {}
        self.queue = Resource(spec.name, servers=max(1, parallelism))
        self.read_stats = LatencyStats()
        self.write_stats = LatencyStats()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metric_labels = dict(metric_labels or {})
        self.metric_labels.setdefault("device", spec.name)
        self._read_hist = self.metrics.histogram(
            "csd.device.read_us", **self.metric_labels
        )
        self._write_hist = self.metrics.histogram(
            "csd.device.write_us", **self.metric_labels
        )
        self._write_bytes = self.metrics.counter(
            "csd.device.write_bytes", **self.metric_labels
        )
        self._rng = np.random.default_rng(seed)
        #: Data-level chaos injector (repro.chaos); None = no injection.
        self._chaos = None
        #: Shared discrete-event kernel once bind_engine() is called.
        self._sim_engine: Optional[Engine] = None
        #: When True (engine mode), GC relocation cost accrues into
        #: _pending_gc_us for :meth:`gc_proc` to drain through the device
        #: queue instead of being charged inline to the writer.
        self._defer_gc = False
        self._pending_gc_us = 0.0
        self._gc_draining = False
        #: Bytes the FTL relocated during the most recent write's service
        #: computation; stashed by the subclass (which has no timestamp)
        #: and turned into a ``gc`` flight-recorder event by
        #: :meth:`_submit_write` (which does).
        self._last_relocated = 0

    def attach_chaos(self, injector) -> None:
        """Arm a :class:`repro.chaos.DeviceInjector` on this device."""
        self._chaos = injector

    def bind_engine(self, engine: Engine, defer_gc: bool = False) -> None:
        """Attach the device queue to a shared event kernel.

        ``defer_gc`` moves FTL relocation cost out of the write path into
        :attr:`_pending_gc_us`, which :meth:`gc_proc` drains in the
        background.
        """
        self._sim_engine = engine
        self._defer_gc = defer_gc
        self.queue.bind_engine(engine)
        self.queue.bind_metrics(self.metrics, **self.metric_labels)

    # -- subclass hooks ----------------------------------------------------

    def _service_write_us(self, lba: int, data: bytes) -> float:
        raise NotImplementedError

    def _service_read_us(self, lba: int, nbytes: int) -> float:
        raise NotImplementedError

    def _store(self, lba: int, data: bytes) -> None:
        raise NotImplementedError

    def trim(self, lba: int, nbytes: int = LBA_SIZE) -> None:
        raise NotImplementedError

    def _load(self, lba: int, nbytes: int) -> bytes:
        """Assemble a read payload from the per-LBA block map.

        Single-block reads (the common case: redo batches, WAL flushes,
        per-page log blocks, most compressed pages) return the stored bytes
        object directly — the seed built a ``bytearray`` and copied it to
        ``bytes`` even for one block.  Multi-block reads join once.
        """
        n_blocks = nbytes // LBA_SIZE
        if n_blocks == 1:
            block = self._blocks.get(lba)
            if block is None:
                raise DeviceError(f"{self.name}: read of unwritten LBA {lba}")
            return block
        parts = []
        for i in range(n_blocks):
            block = self._blocks.get(lba + i)
            if block is None:
                raise DeviceError(
                    f"{self.name}: read of unwritten LBA {lba + i}"
                )
            parts.append(block)
        return b"".join(parts)

    # -- public interface ----------------------------------------------------

    def _submit_write(self, start_us: float, lba: int, data: bytes) -> float:
        """Validate, apply chaos effects, persist the payload, and
        return the request's total service time.  State mutation happens
        at submission so the payload is durable regardless of when the
        queue drains (the simulated latency covers the whole operation)."""
        self._check_alignment(len(data))
        if self._chaos is not None:
            self._chaos.begin_io(start_us)
        self._last_relocated = 0
        service = self._service_write_us(lba, data)
        if self._last_relocated:
            rec = recorder_active()
            if rec is not None:
                rec.emit(
                    start_us, "gc", "relocated",
                    node=self.metric_labels.get("node", ""),
                    device=self.spec.name,
                    bytes=self._last_relocated,
                    deferred=self._defer_gc,
                )
        service *= self._jitter()
        store_lba, store_data = lba, data
        if self._chaos is not None:
            store_lba, store_data, extra = self._chaos.on_write(
                start_us, lba, data
            )
            service += extra
        if store_data is not None:
            if store_lba != lba:
                # Misdirected write: if the stray target is unusable
                # (beyond capacity) the payload is simply lost — the
                # device still reports success either way.
                try:
                    self._store(store_lba, store_data)
                except ReproError:
                    pass
            else:
                self._store(store_lba, store_data)
        return service

    def _finish_write(self, start_us: float, done_us: float, nbytes: int) -> None:
        self.write_stats.record(done_us - start_us)
        self._write_hist.record(done_us - start_us)
        self._write_bytes.add(nbytes)

    def _submit_read(self, start_us: float, lba: int, nbytes: int):
        """Validate, load the payload, and return ``(data, service_us)``."""
        self._check_alignment(nbytes)
        if self._chaos is not None:
            self._chaos.begin_io(start_us)
        data = self._load(lba, nbytes)
        service = self._service_read_us(lba, nbytes)
        service *= self._jitter()
        if self._chaos is not None:
            service += self._chaos.on_read(start_us, lba, nbytes)
        return data, service

    def _finish_read(self, start_us: float, done_us: float) -> None:
        self.read_stats.record(done_us - start_us)
        self._read_hist.record(done_us - start_us)

    def write(self, start_us: float, lba: int, data: bytes) -> IOCompletion:
        """Write ``data`` (4 KB-aligned length) at logical block ``lba``."""
        service = self._submit_write(start_us, lba, data)
        done = self.queue.serve(start_us, service)
        self._finish_write(start_us, done, len(data))
        return IOCompletion(start_us, done)

    def read(self, start_us: float, lba: int, nbytes: int) -> IOCompletion:
        """Read ``nbytes`` (4 KB-aligned) starting at logical block ``lba``."""
        data, service = self._submit_read(start_us, lba, nbytes)
        done = self.queue.serve(start_us, service)
        self._finish_read(start_us, done)
        return IOCompletion(start_us, done, data)

    # -- engine-native interface ----------------------------------------------

    def write_proc(self, lba: int, data: bytes):
        """Engine process: queue a write FIFO behind in-flight requests,
        occupy a device server for its service time, return the
        :class:`IOCompletion`.  Requires :meth:`bind_engine`."""
        start_us = self._sim_engine.now_us
        service = self._submit_write(start_us, lba, data)
        done = yield from self.queue.process(service)
        self._finish_write(start_us, done, len(data))
        return IOCompletion(start_us, done)

    def read_proc(self, lba: int, nbytes: int):
        """Engine process counterpart of :meth:`read`."""
        start_us = self._sim_engine.now_us
        data, service = self._submit_read(start_us, lba, nbytes)
        done = yield from self.queue.process(service)
        self._finish_read(start_us, done)
        return IOCompletion(start_us, done, data)

    def _bank_gc(self, gc_us: float) -> None:
        """Defer ``gc_us`` of relocation work; the deposit that finds no
        drain running starts one."""
        self._pending_gc_us += gc_us
        if not self._gc_draining:
            self._gc_draining = True
            self._sim_engine.spawn(
                self.gc_proc(), name=f"gc-drain-{self.spec.name}"
            )

    def gc_proc(self):
        """Drain banked FTL relocation work (:attr:`_pending_gc_us`)
        through the device queue, one burst per ``GC_PERIOD_US``, stealing
        idle device time and interfering with foreground I/O under load.
        Started by :meth:`_bank_gc` and finished once the bank is empty,
        so an engine with nothing else to do still runs to idle."""
        engine = self._sim_engine
        try:
            while self._pending_gc_us > 0.0:
                yield engine.timeout(GC_PERIOD_US)
                burst = self._pending_gc_us
                self._pending_gc_us = 0.0
                done = yield from self.queue.process(burst)
                rec = recorder_active()
                if rec is not None:
                    rec.emit(
                        done, "gc", "deferred_drain",
                        node=self.metric_labels.get("node", ""),
                        device=self.spec.name,
                        burst_us=round(burst, 3),
                    )
        finally:
            self._gc_draining = False

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _check_alignment(nbytes: int) -> None:
        if nbytes <= 0 or not is_aligned(nbytes, LBA_SIZE):
            raise DeviceError(f"I/O size {nbytes} not 4 KiB-aligned")

    def _jitter(self) -> float:
        if self.spec.jitter_sigma == 0:
            return 1.0
        return float(np.exp(self._rng.normal(0.0, self.spec.jitter_sigma)))

    @property
    def name(self) -> str:
        return self.spec.name


class PlainSSD(BlockDevice):
    """Conventional SSD (Intel P4510/P5510/Optane): fixed 1:1 mapping."""

    def _service_write_us(self, lba: int, data: bytes) -> float:
        return (
            self.spec.write_fixed_us
            + self.spec.transfer_us(len(data))
            + self.spec.nand_write_us(len(data))
        )

    def _service_read_us(self, lba: int, nbytes: int) -> float:
        return (
            self.spec.read_fixed_us
            + self.spec.nand_read_us(nbytes)
            + self.spec.transfer_us(nbytes)
        )

    def _store(self, lba: int, data: bytes) -> None:
        capacity_blocks = self.spec.logical_capacity // LBA_SIZE
        for i in range(0, len(data), LBA_SIZE):
            block_lba = lba + i // LBA_SIZE
            if block_lba >= capacity_blocks:
                raise OutOfSpaceError(f"{self.name}: LBA {block_lba} beyond capacity")
            self._blocks[block_lba] = bytes(data[i : i + LBA_SIZE])

    def trim(self, lba: int, nbytes: int = LBA_SIZE) -> None:
        self._check_alignment(nbytes)
        for i in range(nbytes // LBA_SIZE):
            self._blocks.pop(lba + i, None)

    @property
    def physical_used_bytes(self) -> int:
        return len(self._blocks) * LBA_SIZE

    @property
    def logical_used_bytes(self) -> int:
        return len(self._blocks) * LBA_SIZE


class PolarCSD(BlockDevice):
    """Computational storage drive with in-storage gzip compression.

    Each 4 KB logical block is compressed independently (the NVMe interface
    fixes the input size, §2.2.2) and placed byte-granularly by the FTL.
    Generation is selected by the spec: PolarCSD1.0 uses the 8-byte L2P
    codec (byte offsets), PolarCSD2.0 the 7-byte codec (16-byte offsets).
    """

    def __init__(
        self,
        spec: DeviceSpec,
        seed: int = 0,
        block_capacity: int = 4 * MiB,
        parallelism: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        if not spec.has_compression:
            raise DeviceError(f"{spec.name} has no compression engine")
        super().__init__(spec, seed, parallelism,
                         metrics=metrics, metric_labels=metric_labels)
        codec = L2PEntryCodecV1() if spec.host_managed_ftl else L2PEntryCodecV2()
        self.ftl = FTL(
            spec.physical_capacity,
            codec=codec,
            block_capacity=block_capacity,
            metrics=self.metrics,
            metric_labels=self.metric_labels,
        )

    # -- service time ---------------------------------------------------------

    def _service_write_us(self, lba: int, data: bytes) -> float:
        n_blocks = len(data) // LBA_SIZE
        # Compression happens per 4 KB block inside the device; physical
        # NAND programming covers only the compressed bytes.
        physical = 0
        relocated = 0
        for i in range(n_blocks):
            block = data[i * LBA_SIZE : (i + 1) * LBA_SIZE]
            # Block content repeats heavily (filler-tiled row pages, zero
            # padding, the other two replicas), so it is sized by content.
            compressed_len = min(hw_compressed_len(block), LBA_SIZE)
            relocated += self.ftl.write(lba + i, compressed_len)
            physical += self.ftl.stored_length(lba + i)
        self._last_relocated = relocated
        service = (
            self.spec.write_fixed_us
            + self.spec.transfer_us(len(data))
            + self.spec.hw_compress_us_per_block * n_blocks
            + self.spec.nand_write_us(physical)
        )
        # GC relocation work occupies the device asynchronously; charge it
        # as extra service so sustained overwrites feel the pressure — or,
        # in engine mode with defer_gc, bank it for gc_proc to drain
        # through the same queue.
        if relocated:
            gc_us = self.spec.nand_write_us(relocated) + self.spec.nand_read_us(
                relocated
            )
            if self._defer_gc:
                self._bank_gc(gc_us)
            else:
                service += gc_us
        return service

    def _service_read_us(self, lba: int, nbytes: int) -> float:
        n_blocks = nbytes // LBA_SIZE
        physical = 0
        for i in range(n_blocks):
            physical += self.ftl.stored_length(lba + i)
        return (
            self.spec.read_fixed_us
            + self.spec.nand_read_us(physical)
            + self.spec.hw_decompress_us_per_block * n_blocks
            + self.spec.transfer_us(nbytes)
        )

    # -- data -------------------------------------------------------------------

    def _store(self, lba: int, data: bytes) -> None:
        for i in range(0, len(data), LBA_SIZE):
            self._blocks[lba + i // LBA_SIZE] = bytes(data[i : i + LBA_SIZE])

    def trim(self, lba: int, nbytes: int = LBA_SIZE) -> None:
        self._check_alignment(nbytes)
        for i in range(nbytes // LBA_SIZE):
            self.ftl.trim(lba + i)
            self._blocks.pop(lba + i, None)

    # -- space reporting ----------------------------------------------------------

    @property
    def physical_used_bytes(self) -> int:
        """What the device reports."""
        return self.ftl.live_bytes

    @property
    def logical_used_bytes(self) -> int:
        return self.ftl.logical_used_bytes

    @property
    def compression_ratio(self) -> float:
        """Logical bytes stored per physical byte consumed."""
        physical = self.ftl.live_bytes
        if physical == 0:
            return 1.0
        return self.ftl.logical_used_bytes / physical
