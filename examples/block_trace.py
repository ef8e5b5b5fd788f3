"""Block-level I/O trace generation and replay.

The paper evaluates devices with FIO-style synthetic workloads (Figure 7);
real storage evaluation also replays block traces.  This module provides
both halves: a parametric trace generator (read/write mix, Zipf skew,
size distribution, target compressibility) and a replayer that drives any
:class:`~repro.csd.device.BlockDevice`, honoring inter-arrival gaps and
reporting per-op latency statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.common.latency import LatencyStats
from repro.common.units import KiB, LBA_SIZE
from repro.workloads.fio import buffer_with_ratio
from repro.workloads.zipf import ZipfSampler


@dataclass(frozen=True)
class TraceRecord:
    """One I/O of a block trace."""

    issue_us: float
    op: str          # "read" | "write"
    lba: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"unknown op {self.op!r}")
        if self.nbytes <= 0 or self.nbytes % LBA_SIZE:
            raise ValueError(f"size {self.nbytes} not 4 KiB-aligned")


def generate_trace(
    n_ios: int = 1000,
    read_fraction: float = 0.7,
    lba_space: int = 4096,
    zipf_s: float = 0.9,
    sizes: Sequence[int] = (4 * KiB, 16 * KiB),
    mean_interarrival_us: float = 50.0,
    seed: int = 0,
) -> List[TraceRecord]:
    """A synthetic open-loop trace with the given mix and skew."""
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    rng = random.Random(seed)
    sampler = ZipfSampler(lba_space, s=zipf_s, seed=seed)
    records: List[TraceRecord] = []
    now = 0.0
    max_size_blocks = max(sizes) // LBA_SIZE
    for _ in range(n_ios):
        now += rng.expovariate(1.0) * mean_interarrival_us
        op = "read" if rng.random() < read_fraction else "write"
        size = rng.choice(list(sizes))
        # Align each access to its own size so reads never span holes.
        slot = int(sampler.one()) // max_size_blocks * max_size_blocks
        records.append(TraceRecord(now, op, slot, size))
    return records


@dataclass
class ReplayReport:
    reads: LatencyStats
    writes: LatencyStats
    skipped_reads: int

    @property
    def total_ios(self) -> int:
        return self.reads.count + self.writes.count


def replay_trace(
    device,
    trace: Sequence[TraceRecord],
    compressibility: float = 2.0,
    seed: int = 0,
    assume_prefilled: bool = False,
    time_offset_us: float = 0.0,
) -> ReplayReport:
    """Drive ``device`` with ``trace``; returns per-op latency stats.

    Reads of never-written LBAs are counted as skipped unless
    ``assume_prefilled`` declares that :func:`prefill` ran first.
    """
    rng = random.Random(seed)
    written: Dict[int, int] = {}
    if assume_prefilled:
        for record in trace:
            written[record.lba] = max(
                written.get(record.lba, 0), record.nbytes
            )
    reads = LatencyStats()
    writes = LatencyStats()
    skipped = 0
    for record in trace:
        issue = record.issue_us + time_offset_us
        if record.op == "write":
            buf = buffer_with_ratio(
                compressibility, record.nbytes, seed=rng.randrange(1 << 30)
            )
            completion = device.write(issue, record.lba, buf)
            writes.record(completion.latency_us)
            written[record.lba] = max(
                written.get(record.lba, 0), record.nbytes
            )
        else:
            if written.get(record.lba, 0) < record.nbytes:
                skipped += 1
                continue
            completion = device.read(issue, record.lba, record.nbytes)
            reads.record(completion.latency_us)
    return ReplayReport(reads, writes, skipped)


def prefill(device, trace: Sequence[TraceRecord], compressibility: float = 2.0,
            seed: int = 1) -> float:
    """Write every LBA range the trace will read, before replay.

    Returns the prefill completion time; pass it as ``time_offset_us`` to
    :func:`replay_trace` so replayed I/Os do not queue behind the fill.
    """
    rng = random.Random(seed)
    needed: Dict[int, int] = {}
    for record in trace:
        needed[record.lba] = max(needed.get(record.lba, 0), record.nbytes)
    now = 0.0
    for lba, nbytes in sorted(needed.items()):
        buf = buffer_with_ratio(compressibility, nbytes,
                                seed=rng.randrange(1 << 30))
        now = device.write(now, lba, buf).done_us
    return now
