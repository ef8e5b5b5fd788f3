"""Summary statistics shared by the harness and its self-tests."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

from repro.common.latency import percentile

#: Percentiles a timing may be reported at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def supported_percentile(n: int, cap: float) -> float:
    """The highest ladder percentile <= ``cap`` that leaves at least
    ``MIN_BEYOND`` of ``n`` samples beyond it (the median is always
    reportable)."""
    best = LADDER[0]
    for pct in LADDER:
        if pct > cap:
            break
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            best = pct
    return best


def tail(samples: Sequence[float], cap: float) -> Tuple[float, float]:
    """``(value, percentile used)`` for the tail of ``samples``."""
    pct = supported_percentile(len(samples), cap)
    return percentile(samples, pct), pct


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)

