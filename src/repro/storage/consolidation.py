"""Consolidation policies for evicted redo — the WA benchmark's model.

Opt#3 (§3.3.3) is a *single-level* scheme: every page's spilled redo is
re-merged into one dedicated 4 KB block on each eviction.  That buys
1-read consolidation at the cost of rewriting the whole merged log every
time — exactly the B-tree side of the B-tree-vs-LSM write-amplification
trade described in *Closing the B-tree vs. LSM-tree Write Amplification
Gap on Modern Storage Hardware with Built-in Transparent Compression*
(arXiv:2107.13987).  On the CSD the rewrite is nearly free (the merged
log is internally redundant, so hardware compression collapses it); on
incompressible data it is the dominant write cost.

The storage node runs Opt#3 only, building
:class:`~repro.storage.perpage_log.PerPageLogStore` (or the scattered
baseline when ``opt_per_page_log`` is off) itself.  This module models
the alternatives so ``python -m repro compaction``
(:mod:`repro.bench.write_amp`) can measure the crossover:

:class:`SingleLevelLog`
    Opt#3's per-page log plus the counters the benchmark's accountant
    reads.  Never compacts.

:class:`LeveledPolicy`
    LSM-style: each eviction appends a sorted *run* (page-clustered
    sealed 4 KB blocks) to L0; when L0 exceeds ``l0_limit`` runs they
    merge with L1, and levels cascade downward when their live bytes
    exceed a geometric budget (``base_level_bytes * level_ratio**n``).
    Writes are append-only (low WA); reads pay one block read per run
    containing the page (higher RA, bounded by compaction).

:class:`TieredPolicy`
    Size-tiered: runs stack up within a tier and only merge — into a
    single run in the *next* tier — once ``tier_fanout`` of them
    accumulate.  Lowest WA, highest RA.

Every policy speaks the log-store protocol the storage node uses
(``evict``/``fetch``/``discard``/``blocks_for``/``pages_with_logs``/
``stored_bytes_for``/``allocated_blocks``) plus :meth:`drain`, which
runs planned compactions synchronously until none is left.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.units import KiB, LBA_SIZE, align_up
from repro.storage.perpage_log import (
    LOG_BLOCK_CAPACITY,
    FetchResult,
    PerPageLogStore,
    seal_block,
    unseal_block,
)
from repro.storage.redo import RedoRecord, decode_records, encode_records

#: Selectable policy names (:func:`make_policy`).
POLICIES = ("single-level", "leveled", "tiered")

#: Bytes the seal header (CRC + length) takes out of each 4 KB block.
_SEAL_BYTES = LBA_SIZE - LOG_BLOCK_CAPACITY

#: Run layout order: page-clustered, then LSN — so one page's records
#: land in as few blocks as possible.
_RUN_ORDER = lambda r: (r.page_no, r.lsn, r.offset)  # noqa: E731


@dataclass
class ConsolidationConfig:
    """Shape of the run-based policies' level / tier hierarchy."""

    #: Leveled: L0 run count that triggers the first merge.
    l0_limit: int = 4
    #: Leveled: geometric growth factor between level byte budgets.
    level_ratio: int = 4
    #: Leveled: live-byte budget of L1 (level n gets ratio**(n-1) times this).
    base_level_bytes: int = 64 * KiB
    #: Depth of the level / tier hierarchy.
    max_levels: int = 8
    #: Tiered: runs that must stack up in a tier before they merge.
    tier_fanout: int = 4

    def validate(self) -> "ConsolidationConfig":
        if self.l0_limit < 1:
            raise ValueError("l0_limit must be at least 1")
        if self.level_ratio < 2:
            raise ValueError("level_ratio must be at least 2")
        if self.base_level_bytes < LBA_SIZE:
            raise ValueError("base_level_bytes must be at least one 4 KB block")
        if self.max_levels < 2:
            raise ValueError("max_levels must be at least 2")
        if self.tier_fanout < 2:
            raise ValueError("tier_fanout must be at least 2")
        return self


@dataclass(frozen=True)
class CompactionTask:
    """One unit of maintenance a run-based policy plans."""

    #: Source level (leveled) or tier (tiered).
    level: int
    #: Trigger: ``l0-runs``, ``level-bytes``, or ``tier-fanout``.
    reason: str
    #: Lower runs first; L0/T0 absorb foreground flushes, so they win.
    priority: int = 1


class SingleLevelLog(PerPageLogStore):
    """Opt#3's per-page log as the benchmark's single-level arm.

    The store the storage node runs, plus plain-int counters for the
    amplification accountant; one block per page leaves nothing to
    compact, so :meth:`drain` returns at once.
    """

    name = "single-level"
    compactions = 0

    def __init__(self, device, allocator) -> None:
        super().__init__(device, allocator)
        self.user_bytes_evicted = 0
        self.fetches = 0
        self.fetch_reads = 0

    def evict(self, start_us: float, records: List[RedoRecord]) -> float:
        self.user_bytes_evicted += sum(r.size_bytes for r in records)
        return super().evict(start_us, records)

    def fetch(self, start_us: float, page_no: int) -> FetchResult:
        result = super().fetch(start_us, page_no)
        self.fetches += 1
        self.fetch_reads += result.reads_issued
        return result

    def drain(self, now_us: float) -> float:
        return now_us


@dataclass
class _Run:
    """One immutable sorted run: sealed 4 KB blocks on the data device."""

    run_id: int
    level: int
    #: ``(lba, span_blocks)`` per chunk, in write order.
    blocks: List[Tuple[int, int]] = field(default_factory=list)
    #: Block span per chunk LBA (multi-block chunks for large records).
    block_span: Dict[int, int] = field(default_factory=dict)
    #: Live records per page (metadata mirror of the device contents;
    #: ``discard`` drops pages here without touching the device).
    records_by_page: Dict[int, List[RedoRecord]] = field(default_factory=dict)
    #: Which chunk LBAs hold each live page's records.
    page_lbas: Dict[int, Set[int]] = field(default_factory=dict)
    #: Encoded live bytes per page.
    page_bytes: Dict[int, int] = field(default_factory=dict)

    @property
    def live_bytes(self) -> int:
        return sum(self.page_bytes.values())

    @property
    def span_blocks(self) -> int:
        return sum(span for _, span in self.blocks)


class _RunBasedPolicy:
    """Shared machinery for the leveled and tiered policies."""

    def __init__(self, device, allocator, config: ConsolidationConfig) -> None:
        self._device = device
        self._allocator = allocator
        self.config = config
        self._run_ids = itertools.count(1)
        #: ``_groups[n]`` = runs at level/tier ``n``, oldest first.
        self._groups: List[List[_Run]] = [
            [] for _ in range(config.max_levels)
        ]
        self.user_bytes_evicted = 0
        self.fetches = 0
        self.fetch_reads = 0
        self.compactions = 0
        self.compaction_write_bytes = 0

    # -- run I/O -------------------------------------------------------------

    def _write_run(
        self, start_us: float, level: int, ordered: List[RedoRecord]
    ) -> Tuple[_Run, float]:
        """Persist ``ordered`` records as one run of sealed blocks."""
        run = _Run(next(self._run_ids), level)
        now = start_us
        open_records: List[RedoRecord] = []
        open_bytes = 0

        def flush(now: float) -> float:
            nonlocal open_records, open_bytes
            if not open_records:
                return now
            lba = self._allocator.allocate_blocks(LBA_SIZE)
            blob = seal_block(encode_records(open_records), LBA_SIZE)
            now = self._device.write(now, lba, blob).done_us
            run.blocks.append((lba, 1))
            run.block_span[lba] = 1
            for r in open_records:
                run.page_lbas.setdefault(r.page_no, set()).add(lba)
            open_records = []
            open_bytes = 0
            return now

        for record in ordered:
            if record.size_bytes > LOG_BLOCK_CAPACITY:
                # Large record: its own contiguous multi-block chunk.
                now = flush(now)
                nbytes = align_up(_SEAL_BYTES + record.size_bytes, LBA_SIZE)
                lba = self._allocator.allocate_blocks(nbytes)
                now = self._device.write(
                    now, lba, seal_block(record.encode(), nbytes)
                ).done_us
                span = nbytes // LBA_SIZE
                run.blocks.append((lba, span))
                run.block_span[lba] = span
                run.page_lbas.setdefault(record.page_no, set()).add(lba)
            else:
                if open_bytes + record.size_bytes > LOG_BLOCK_CAPACITY:
                    now = flush(now)
                open_records.append(record)
                open_bytes += record.size_bytes
            run.records_by_page.setdefault(record.page_no, []).append(record)
            run.page_bytes[record.page_no] = (
                run.page_bytes.get(record.page_no, 0) + record.size_bytes
            )
        now = flush(now)
        return run, now

    def _free_run(self, run: _Run) -> None:
        for lba, span in run.blocks:
            self._allocator.free_blocks(lba, span * LBA_SIZE)
            self._device.trim(lba, span * LBA_SIZE)

    def _iter_runs(self) -> List[_Run]:
        return [run for group in self._groups for run in group]

    # -- log-store protocol --------------------------------------------------

    def evict(self, start_us: float, records: List[RedoRecord]) -> float:
        """Append one sorted run to L0/T0 — no read-modify-write."""
        if not records:
            return start_us
        self.user_bytes_evicted += sum(r.size_bytes for r in records)
        ordered = sorted(records, key=_RUN_ORDER)
        run, now = self._write_run(start_us, 0, ordered)
        self._groups[0].append(run)
        return now

    def fetch(self, start_us: float, page_no: int) -> FetchResult:
        """Read the page's records from every run containing it."""
        now = start_us
        reads = 0
        records: List[RedoRecord] = []
        for run in self._iter_runs():
            for lba in sorted(run.page_lbas.get(page_no, ())):
                span = run.block_span[lba]
                completion = self._device.read(now, lba, span * LBA_SIZE)
                now = completion.done_us
                reads += 1
                parsed = decode_records(unseal_block(completion.data))
                records.extend(r for r in parsed if r.page_no == page_no)
        self.fetches += 1
        self.fetch_reads += reads
        return FetchResult(sorted(records), reads, now)

    def discard(self, page_no: int) -> None:
        """Drop a page's records; dead runs free their blocks."""
        for group in self._groups:
            for run in list(group):
                if page_no not in run.page_lbas:
                    continue
                run.page_lbas.pop(page_no, None)
                run.records_by_page.pop(page_no, None)
                run.page_bytes.pop(page_no, None)
                if not run.page_bytes:
                    self._free_run(run)
                    group.remove(run)

    def blocks_for(self, page_no: int) -> int:
        return sum(
            len(run.page_lbas.get(page_no, ())) for run in self._iter_runs()
        )

    def pages_with_logs(self) -> List[int]:
        seen: Dict[int, None] = {}
        for run in self._iter_runs():
            for page_no in run.page_lbas:
                seen.setdefault(page_no)
        return list(seen)

    def stored_bytes_for(self, page_no: int) -> int:
        return sum(
            run.page_bytes.get(page_no, 0) for run in self._iter_runs()
        )

    @property
    def allocated_blocks(self) -> int:
        return sum(run.span_blocks for run in self._iter_runs())

    # -- compaction ----------------------------------------------------------

    def drain(self, now_us: float) -> float:
        """Run the most urgent planned task — lowest ``(priority, level)``
        — until nothing is planned; returns the finish time."""
        while True:
            tasks = self.plan_compactions()
            if not tasks:
                return now_us
            task = min(tasks, key=lambda t: (t.priority, t.level))
            now_us = self.compact(now_us, task)

    def _merge_runs(
        self,
        start_us: float,
        sources: List[_Run],
        target_level: int,
    ) -> float:
        """Read, merge-sort, and rewrite ``sources`` as one target run."""
        now = start_us
        live: List[RedoRecord] = []
        for run in sources:
            for lba, span in run.blocks:
                completion = self._device.read(now, lba, span * LBA_SIZE)
                now = completion.done_us
            for records in run.records_by_page.values():
                live.extend(records)
        for run in sources:
            self._free_run(run)
        if live:
            live.sort(key=_RUN_ORDER)
            written_before = sum(r.size_bytes for r in live)
            merged, now = self._write_run(now, target_level, live)
            self._groups[target_level].append(merged)
            self.compaction_write_bytes += written_before
        self.compactions += 1
        return now


class LeveledPolicy(_RunBasedPolicy):
    """L0 overlapping runs + geometrically budgeted sorted levels."""

    name = "leveled"

    def _level_budget(self, level: int) -> int:
        return self.config.base_level_bytes * (
            self.config.level_ratio ** (level - 1)
        )

    def plan_compactions(self) -> List[CompactionTask]:
        tasks: List[CompactionTask] = []
        l0 = self._groups[0]
        if len(l0) > self.config.l0_limit:
            tasks.append(CompactionTask(0, "l0-runs", priority=0))
        last = self.config.max_levels - 1
        for level in range(1, self.config.max_levels):
            group = self._groups[level]
            if not group:
                continue
            over = sum(run.live_bytes for run in group) > self._level_budget(level)
            if level == last:
                # The bottom level can only fold its own runs together;
                # a single over-budget run has nowhere to cascade.
                if len(group) > 1 and over:
                    tasks.append(CompactionTask(level, "level-bytes"))
            elif over:
                tasks.append(CompactionTask(level, "level-bytes"))
        return tasks

    def compact(self, start_us: float, task: CompactionTask) -> float:
        level = task.level
        last = self.config.max_levels - 1
        target = min(level + 1, last)
        sources = list(self._groups[level])
        self._groups[level] = []
        if target != level:
            sources += self._groups[target]
            self._groups[target] = []
        return self._merge_runs(start_us, sources, target)


class TieredPolicy(_RunBasedPolicy):
    """Size-tiered: runs stack per tier, merging into the next tier."""

    name = "tiered"

    def plan_compactions(self) -> List[CompactionTask]:
        tasks: List[CompactionTask] = []
        for tier, group in enumerate(self._groups):
            if len(group) >= self.config.tier_fanout:
                tasks.append(
                    CompactionTask(
                        tier, "tier-fanout", priority=0 if tier == 0 else 1
                    )
                )
        return tasks

    def compact(self, start_us: float, task: CompactionTask) -> float:
        tier = task.level
        target = min(tier + 1, self.config.max_levels - 1)
        sources = list(self._groups[tier])
        self._groups[tier] = []
        return self._merge_runs(start_us, sources, target)


def make_policy(
    name: str,
    device,
    allocator,
    config: Optional[ConsolidationConfig] = None,
):
    """Build the named policy (one of :data:`POLICIES`) on a device."""
    if name == "single-level":
        return SingleLevelLog(device, allocator)
    config = (config if config is not None else ConsolidationConfig()).validate()
    if name == "leveled":
        return LeveledPolicy(device, allocator, config)
    if name == "tiered":
        return TieredPolicy(device, allocator, config)
    raise ValueError(
        f"unknown consolidation policy {name!r}; options: {', '.join(POLICIES)}"
    )
