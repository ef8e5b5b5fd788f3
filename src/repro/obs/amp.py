"""Unified write/space/read amplification accounting.

The repo measures amplification in three places that grew up separately:
the FTL counts physical NAND bytes per host byte
(:class:`repro.csd.ftl.FTLStats`), the LSM baseline counts compaction
rewrites (:class:`repro.baselines.lsm.LSMStats`), and the tracer counts
read fan-out per consolidation.  :class:`AmplificationAccountant` gives
them one home: the three ratios below are *the* definitions, every
legacy ``write_amplification`` accessor delegates to them, and an
accountant instance exports them as ``storage.amp.write|space|read``
gauges in whatever :class:`~repro.obs.metrics.MetricsRegistry` owns the
run.

The accountant is deliberately lazy: nothing registers these gauges at
store construction time (the fingerprints of the scenario table,
:mod:`repro.obs.scenarios`, hash every instrument in a registry, and the
default single-level path must stay byte-identical to the pre-policy
code).  Benchmarks, the compaction CLI,
and tests create accountants explicitly.
"""

from __future__ import annotations

from typing import Callable, Optional

#: Metric names the accountant owns.
WRITE_AMP_GAUGE = "storage.amp.write"
SPACE_AMP_GAUGE = "storage.amp.space"
READ_AMP_GAUGE = "storage.amp.read"


def write_amp(user_bytes: float, physical_bytes: float) -> float:
    """Physical bytes written per user byte (1.0 when nothing written)."""
    if user_bytes <= 0:
        return 1.0
    return physical_bytes / user_bytes


def space_amp(live_bytes: float, stored_bytes: float) -> float:
    """Stored bytes per live user byte (1.0 when nothing is live)."""
    if live_bytes <= 0:
        return 1.0
    return stored_bytes / live_bytes


def read_amp(user_reads: float, device_reads: float) -> float:
    """Device reads per user-visible read (1.0 when no reads happened)."""
    if user_reads <= 0:
        return 1.0
    return device_reads / user_reads


class AmplificationAccountant:
    """Export WA/SA/RA as registry gauges from caller-supplied sources.

    Every source is a zero-argument callable returning the current total,
    so the gauges always reflect live state without the accountant having
    to observe individual operations.  Sources left ``None`` skip their
    gauge (an FTL knows nothing about read fan-out, a policy benchmark
    may not track space).
    """

    def __init__(
        self,
        metrics,
        *,
        user_write_bytes: Optional[Callable[[], float]] = None,
        physical_write_bytes: Optional[Callable[[], float]] = None,
        live_bytes: Optional[Callable[[], float]] = None,
        stored_bytes: Optional[Callable[[], float]] = None,
        user_reads: Optional[Callable[[], float]] = None,
        device_reads: Optional[Callable[[], float]] = None,
        **labels,
    ) -> None:
        self.metrics = metrics
        self._user_write_bytes = user_write_bytes
        self._physical_write_bytes = physical_write_bytes
        self._live_bytes = live_bytes
        self._stored_bytes = stored_bytes
        self._user_reads = user_reads
        self._device_reads = device_reads
        if user_write_bytes is not None and physical_write_bytes is not None:
            metrics.gauge_fn(WRITE_AMP_GAUGE, self.write_amplification, **labels)
        if live_bytes is not None and stored_bytes is not None:
            metrics.gauge_fn(SPACE_AMP_GAUGE, self.space_amplification, **labels)
        if user_reads is not None and device_reads is not None:
            metrics.gauge_fn(READ_AMP_GAUGE, self.read_amplification, **labels)

    # -- the three ratios ---------------------------------------------------

    def write_amplification(self) -> float:
        return write_amp(self._user_write_bytes(), self._physical_write_bytes())

    def space_amplification(self) -> float:
        return space_amp(self._live_bytes(), self._stored_bytes())

    def read_amplification(self) -> float:
        return read_amp(self._user_reads(), self._device_reads())
