"""Latency summary statistics: nearest-rank percentiles and the sample
list the figures report mean / P95 / P99 from."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; ``pct`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} out of range")
    ordered = sorted(samples)
    if pct == 0.0:
        return ordered[0]
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclass
class LatencyStats:
    """Online collector for latency samples with summary accessors."""

    samples: List[float] = field(default_factory=list)

    def record(self, value_us: float) -> None:
        self.samples.append(value_us)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean_us(self) -> float:
        if not self.samples:
            return 0.0
        # In order with ``+``, as ``Histogram`` adds: Python 3.12's
        # ``sum`` compensates float rounding, which moves the last digit.
        total = 0.0
        for value in self.samples:
            total += value
        return total / len(self.samples)

    def pct(self, percentile_value: float) -> float:
        return percentile(self.samples, percentile_value)

    @property
    def p95_us(self) -> float:
        return self.pct(95.0)

    @property
    def p99_us(self) -> float:
        return self.pct(99.0)
