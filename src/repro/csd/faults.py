"""Slow-I/O fault injection (§4.1.1 / Figure 8).

PolarCSD1.0's host-based FTL exposed the whole server to three failure
sources — host memory contention, host CPU contention, and kernel-driver
bugs — producing rare but severe latency spikes (26 slow-I/O incidents in
18 months, 5 of them driver bugs lasting over 10 minutes).  PolarCSD2.0's
device-managed FTL removed the contention sources entirely and contained
driver faults, cutting the ≥4 ms tail by ~37×.

This module models those mechanisms as per-I/O spike probabilities with
per-cause severity distributions.  The constants are chosen so the
simulated 7-day tail distribution lands on the paper's Figure 8 numbers
(CSD1.0: 2.9e-5 of reads and 4.0e-5 of writes ≥ 4 ms; CSD2.0: 7.91e-7 and
1.05e-6).  Fig 8 samples the profiles directly; no device model arms them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FaultCause:
    """One spike source: probability per I/O and a severity distribution."""

    name: str
    probability: float
    #: Lognormal severity parameters for the added latency, in µs.
    median_us: float
    sigma: float


@dataclass(frozen=True)
class FaultProfile:
    """The set of spike sources affecting one device generation."""

    name: str
    read_causes: Sequence[FaultCause]
    write_causes: Sequence[FaultCause]

    def sample_extra_us(
        self, rng: np.random.Generator, count: int, is_read: bool
    ) -> np.ndarray:
        """Vectorized spike latencies for ``count`` I/Os (0 when no spike)."""
        extra = np.zeros(count)
        for cause in self.read_causes if is_read else self.write_causes:
            hits = rng.random(count) < cause.probability
            n_hits = int(hits.sum())
            if n_hits:
                spikes = cause.median_us * np.exp(
                    rng.normal(0.0, cause.sigma, n_hits)
                )
                extra[hits] = np.maximum(extra[hits], spikes)
        return extra

    def sample_one_us(self, rng: np.random.Generator, is_read: bool) -> float:
        return float(self.sample_extra_us(rng, 1, is_read)[0])


# Host-based FTL (PolarCSD1.0).  Memory contention dominates (12/26
# incidents), then CPU contention (9/26), then driver bugs (5/26) which are
# rarer but far more severe (>10 s for >10 minutes).
POLARCSD1_FAULTS = FaultProfile(
    name="PolarCSD1.0 host-FTL",
    read_causes=(
        FaultCause("memory-contention", 2.6e-5, median_us=5_000.0, sigma=0.8),
        FaultCause("cpu-contention", 2.0e-5, median_us=4_500.0, sigma=0.7),
        FaultCause("driver-bug", 4.0e-7, median_us=2_000_000.0, sigma=1.0),
    ),
    write_causes=(
        FaultCause("memory-contention", 3.4e-5, median_us=5_500.0, sigma=0.8),
        FaultCause("cpu-contention", 2.6e-5, median_us=5_000.0, sigma=0.7),
        FaultCause("driver-bug", 4.0e-7, median_us=2_000_000.0, sigma=1.0),
    ),
)

# Device-managed FTL (PolarCSD2.0): no host contention; only the occasional
# internal hiccup (GC pressure, firmware pauses), both rare and contained.
POLARCSD2_FAULTS = FaultProfile(
    name="PolarCSD2.0 device-FTL",
    read_causes=(
        FaultCause("internal", 1.2e-6, median_us=5_000.0, sigma=0.5),
    ),
    write_causes=(
        FaultCause("internal", 1.45e-6, median_us=5_500.0, sigma=0.5),
    ),
)
