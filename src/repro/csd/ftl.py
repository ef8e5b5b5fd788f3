"""Page-mapping FTL with byte-granularity physical placement.

This is the component that gives PolarStore byte-level index granularity
"for free": the software above only ever addresses 4 KB LBAs, while the FTL
places each (hardware-compressed) payload at an arbitrary byte offset inside
NAND erase blocks and reclaims stale bytes with its ordinary garbage
collection.

The same class serves both device generations; the injected mapping codec
(:class:`~repro.csd.mapping.L2PEntryCodecV1` or ``V2``) decides entry size
and offset granularity.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.errors import DeviceError, OutOfSpaceError
from repro.common.units import MiB
from repro.csd.mapping import L2PEntryCodecV1, MAPPING_LBA_SIZE
from repro.csd.nand import NandBlock, NandSpace
from repro.obs.metrics import MetricsRegistry


class FTLStats:
    """Lifetime counters used by benchmarks and the cluster monitor.

    Backed by :class:`~repro.obs.metrics.MetricsRegistry` counters so the
    same numbers appear in metric snapshots and Prometheus exports; the
    original attribute API (``stats.gc_runs`` etc.) is preserved as
    read-only properties.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 labels: Optional[dict] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = labels or {}
        self._host_written = self.metrics.counter(
            "csd.ftl.host_written_bytes", **labels)
        self._nand_written = self.metrics.counter(
            "csd.ftl.nand_written_bytes", **labels)
        self._gc_relocated = self.metrics.counter(
            "csd.ftl.gc_relocated_bytes", **labels)
        self._gc_runs = self.metrics.counter("csd.ftl.gc_runs", **labels)
        self._trims = self.metrics.counter("csd.ftl.trims", **labels)

    # -- recording (called by the FTL) --------------------------------------

    def record_host_write(self, stored_len: int) -> None:
        self._host_written.add(stored_len)
        self._nand_written.add(stored_len)

    def record_gc(self, relocated_bytes: int) -> None:
        self._gc_relocated.add(relocated_bytes)
        self._nand_written.add(relocated_bytes)
        self._gc_runs.inc()

    def record_trim(self) -> None:
        self._trims.inc()

    # -- the seed's read API -------------------------------------------------

    @property
    def host_written_bytes(self) -> int:
        return int(self._host_written.value)

    @property
    def nand_written_bytes(self) -> int:
        return int(self._nand_written.value)

    @property
    def gc_relocated_bytes(self) -> int:
        return int(self._gc_relocated.value)

    @property
    def gc_runs(self) -> int:
        return int(self._gc_runs.value)

    @property
    def trims(self) -> int:
        return int(self._trims.value)

    @property
    def write_amplification(self) -> float:
        """NAND bytes per host byte — the unified WA definition
        (:func:`repro.obs.amp.write_amp`)."""
        from repro.obs.amp import write_amp

        return write_amp(self.host_written_bytes, self.nand_written_bytes)


class FTL:
    """Byte-granular page-mapping FTL over :class:`NandSpace`."""

    #: Keep this many erase blocks free; GC runs when we dip below.
    GC_RESERVE_BLOCKS = 2

    def __init__(
        self,
        physical_capacity: int,
        codec: Optional[object] = None,
        block_capacity: int = 4 * MiB,
        gc_policy: str = "greedy",
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[dict] = None,
    ) -> None:
        """``gc_policy``: ``"greedy"`` picks the block with the fewest live
        bytes; ``"cost-benefit"`` weighs reclaimable space against
        relocation cost *and* block age (colder blocks are better victims
        under skewed overwrites — the classic LFS policy)."""
        if gc_policy not in ("greedy", "cost-benefit"):
            raise ValueError(f"unknown GC policy {gc_policy!r}")
        self.gc_policy = gc_policy
        self._write_stamp = 0
        self._block_stamp: Dict[int, int] = {}
        self.nand = NandSpace(physical_capacity, block_capacity)
        self.codec = codec if codec is not None else L2PEntryCodecV1()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = FTLStats(self.metrics, metric_labels)
        # lba -> (block_id, offset, stored_len)
        self._mapping: Dict[int, "tuple[int, int, int]"] = {}
        # block_id -> {lba: stored_len}: reverse index for GC relocation.
        self._residents: Dict[int, Dict[int, int]] = {}
        self._active: Optional[NandBlock] = None

    # -- public interface --------------------------------------------------

    def write(self, lba: int, compressed_len: int) -> int:
        """Map ``lba`` to a fresh physical location of ``compressed_len``
        (physical charge rounded per the mapping codec's granularity).

        Returns the number of bytes GC relocated as a side effect, so the
        device model can charge that background work.
        """
        if lba < 0:
            raise DeviceError(f"negative LBA {lba}")
        if not 1 <= compressed_len <= MAPPING_LBA_SIZE:
            raise DeviceError(
                f"compressed length {compressed_len} outside (0, 4 KiB]"
            )
        stored_len = self.codec.stored_length(compressed_len)
        relocated = self._ensure_space(stored_len)
        self._invalidate(lba)
        self._place(lba, stored_len)
        self.stats.record_host_write(stored_len)
        return relocated

    def read(self, lba: int) -> "tuple[int, int, int]":
        """Return (block_id, offset, stored_len) for a mapped LBA."""
        try:
            return self._mapping[lba]
        except KeyError:
            raise DeviceError(f"read of unmapped LBA {lba}") from None

    def stored_length(self, lba: int) -> int:
        return self.read(lba)[2]

    def trim(self, lba: int) -> None:
        """Host frees an LBA: the mapping is dropped and the bytes become
        reclaimable stale space."""
        if lba not in self._mapping:
            return
        self.stats.record_trim()
        self._invalidate(lba)

    # -- space accounting ---------------------------------------------------

    @property
    def live_bytes(self) -> int:
        """Bytes the device holds live (its reported usage)."""
        return self.nand.live_bytes

    @property
    def logical_used_bytes(self) -> int:
        return len(self._mapping) * MAPPING_LBA_SIZE

    # -- internals -----------------------------------------------------------

    def _invalidate(self, lba: int) -> None:
        entry = self._mapping.pop(lba, None)
        if entry is None:
            return
        block_id, _, stored_len = entry
        self.nand.blocks[block_id].invalidate(stored_len)
        self._residents[block_id].pop(lba, None)

    def _place(self, lba: int, stored_len: int) -> None:
        block = self._active_block(stored_len)
        offset = block.append(stored_len)
        self._mapping[lba] = (block.block_id, offset, stored_len)
        self._residents.setdefault(block.block_id, {})[lba] = stored_len
        self._write_stamp += 1
        self._block_stamp[block.block_id] = self._write_stamp

    def _active_block(self, needed: int) -> NandBlock:
        if self._active is not None and self._active.free_bytes() >= needed:
            return self._active
        if self._active is not None:
            self._active.sealed = True
        free = self.nand.free_blocks()
        if not free:
            raise OutOfSpaceError("FTL: no free erase blocks")
        self._active = free[0]
        return self._active

    def _ensure_space(self, incoming: int) -> int:
        """Run GC until the reserve holds; returns bytes relocated."""
        relocated = 0
        guard = len(self.nand.blocks) * 4
        while self._needs_gc(incoming):
            victim = self._pick_victim()
            if victim is None:
                raise OutOfSpaceError(
                    "FTL: GC cannot reclaim space "
                    f"(live {self.live_bytes}/{self.nand.physical_capacity})"
                )
            relocated += self._collect(victim)
            guard -= 1
            if guard <= 0:
                raise DeviceError("FTL: GC failed to converge")
        return relocated

    def _needs_gc(self, incoming: int) -> bool:
        free = self.nand.free_blocks()
        active_free = self._active.free_bytes() if self._active else 0
        if active_free >= incoming and len(free) >= self.GC_RESERVE_BLOCKS:
            return False
        return len(free) <= self.GC_RESERVE_BLOCKS

    def _pick_victim(self) -> Optional[NandBlock]:
        candidates = [
            b
            for b in self.nand.victim_candidates()
            if b is not self._active and b.stale_bytes > 0
        ]
        if not candidates:
            return None
        if self.gc_policy == "greedy":
            return candidates[0]  # fewest live bytes
        # Cost-benefit (LFS): benefit = free space * age, cost = 1 + u
        # where u is the live fraction; maximize benefit/cost.
        def score(block: NandBlock) -> float:
            u = block.live_bytes / block.capacity
            age = self._write_stamp - self._block_stamp.get(block.block_id, 0)
            return (1.0 - u) * (1 + age) / (1.0 + u)

        return max(candidates, key=score)

    def _collect(self, victim: NandBlock) -> int:
        """Relocate the victim's live payloads and erase it."""
        residents = self._residents.get(victim.block_id, {})
        relocated = 0
        for lba, stored_len in list(residents.items()):
            # Move to the active block (never back into the victim).
            block = self._active_block(stored_len)
            if block is victim:  # pragma: no cover - guarded by _pick_victim
                raise DeviceError("FTL: GC selected the active block")
            offset = block.append(stored_len)
            self._mapping[lba] = (block.block_id, offset, stored_len)
            self._residents.setdefault(block.block_id, {})[lba] = stored_len
            victim.invalidate(stored_len)
            relocated += stored_len
        self._residents[victim.block_id] = {}
        victim.erase()
        self.stats.record_gc(relocated)
        return relocated
