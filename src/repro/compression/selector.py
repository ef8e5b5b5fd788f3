"""Adaptive lz4/zstd selection (the paper's Algorithm 1, Opt#2).

For each page write, the selector compresses with both codecs, 4 KB
ceiling-aligns both sizes (because compressed pages are stored in 4 KB
LBAs), and switches to zstd only when its storage saving per extra
microsecond of decompression latency clears a threshold derived from the
device's I/O cost — the paper uses 300 B/µs because one 4 KB block of I/O
costs 12–14 µs.

The evaluation is itself skipped when the node's CPU is busy (>20%
utilization) or when the page has not changed enough (<30% updated) since
its last selection, exactly as in Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.units import align_up, LBA_SIZE
from repro.compression import memo
from repro.compression.base import CompressionResult
from repro.compression.cost import codec_cost
from repro.obs.metrics import MetricsRegistry

#: Threshold from §3.3.2: bytes saved per extra µs of decompression.
DEFAULT_THRESHOLD_BYTES_PER_US = 300.0
#: CPU-utilization gate from Algorithm 1, line 2.
CPU_UTILIZATION_GATE = 0.20
#: Update-fraction gate from Algorithm 1, line 5.
UPDATE_PERCENT_GATE = 0.30


def _compressed(page: bytes, codec_name: str) -> CompressionResult:
    return CompressionResult(
        codec_name, memo.compress(codec_name, page), len(page)
    )


@dataclass(frozen=True)
class SelectionDecision:
    """Outcome of one selection: which codec won and why."""

    codec: str
    result: CompressionResult
    evaluated: bool
    benefit_bytes: float = 0.0
    overhead_us: float = 0.0


class AlgorithmSelector:
    """Per-page codec chooser implementing Algorithm 1."""

    def __init__(
        self,
        update_gate: float = UPDATE_PERCENT_GATE,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.update_gate = update_gate
        self.evaluations = 0
        self.fallbacks = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._evaluations_ctr = self.metrics.counter(
            "compression.selector.evaluations"
        )
        self._fallbacks_ctr = self.metrics.counter(
            "compression.selector.fallbacks"
        )
        self._benefit_hist = self.metrics.histogram(
            "compression.selector.benefit_bytes_per_us"
        )

    def _decided(self, decision: SelectionDecision) -> SelectionDecision:
        self.metrics.counter(
            "compression.selector.selected", codec=decision.codec
        ).inc()
        return decision

    def select(
        self,
        page: bytes,
        cpu_utilization: float = 0.0,
        update_percent: float = 1.0,
        last_used: Optional[str] = None,
    ) -> SelectionDecision:
        """Pick a codec for ``page`` and return its compressed form.

        ``update_percent=1.0`` (the default) models an initial page write,
        which always triggers evaluation when the CPU allows it.
        """
        if cpu_utilization > CPU_UTILIZATION_GATE:
            self.fallbacks += 1
            self._fallbacks_ctr.inc()
            return self._decided(self._single(page, "lz4"))
        if update_percent <= self.update_gate and last_used is not None:
            self.fallbacks += 1
            self._fallbacks_ctr.inc()
            return self._decided(self._single(page, last_used))

        self.evaluations += 1
        self._evaluations_ctr.inc()
        lz4_result = _compressed(page, "lz4")
        zstd_result = _compressed(page, "zstd")
        lz4_aligned = align_up(lz4_result.compressed_size, LBA_SIZE)
        zstd_aligned = align_up(zstd_result.compressed_size, LBA_SIZE)

        # Decompression latency charged by the cost model (the read path
        # decompresses the aligned payload it fetched).
        lz4_lat = codec_cost("lz4").decompress_us(lz4_aligned)
        zstd_lat = codec_cost("zstd").decompress_us(zstd_aligned)
        overhead_us = max(zstd_lat - lz4_lat, 1e-9)
        benefit_bytes = float(lz4_aligned - zstd_aligned)
        self._benefit_hist.record(max(benefit_bytes, 0.0) / overhead_us)

        if benefit_bytes / overhead_us > DEFAULT_THRESHOLD_BYTES_PER_US:
            return self._decided(SelectionDecision(
                "zstd", zstd_result, True, benefit_bytes, overhead_us,
            ))
        return self._decided(SelectionDecision(
            "lz4", lz4_result, True, benefit_bytes, overhead_us,
        ))

    @staticmethod
    def _single(page: bytes, codec_name: str) -> SelectionDecision:
        return SelectionDecision(
            codec_name, _compressed(page, codec_name), False
        )
