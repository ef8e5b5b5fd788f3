"""Unified write/space/read amplification accounting.

The repo measures amplification in three places that grew up separately:
the FTL counts physical NAND bytes per host byte
(:class:`repro.csd.ftl.FTLStats`), the LSM baseline counts compaction
rewrites (:class:`repro.baselines.lsm.LSMStats`), and the tracer counts
read fan-out per consolidation.  :class:`AmplificationAccountant` gives
them one home: the three ratios below are *the* definitions, and every
legacy ``write_amplification`` accessor delegates to them.  The
compaction benchmark (:mod:`repro.bench.write_amp`) creates one per
policy run.
"""

from __future__ import annotations

from typing import Callable


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
    """WA/SA/RA of one run, from caller-supplied sources.

    Every source is a zero-argument callable returning the current total,
    so the ratios always reflect live state without the accountant having
    to observe individual operations.
    """

    def __init__(
        self,
        *,
        user_write_bytes: Callable[[], float],
        physical_write_bytes: Callable[[], float],
        live_bytes: Callable[[], float],
        stored_bytes: Callable[[], float],
        user_reads: Callable[[], float],
        device_reads: Callable[[], float],
    ) -> None:
        self._user_write_bytes = user_write_bytes
        self._physical_write_bytes = physical_write_bytes
        self._live_bytes = live_bytes
        self._stored_bytes = stored_bytes
        self._user_reads = user_reads
        self._device_reads = device_reads

    # -- the three ratios ---------------------------------------------------

    def write_amplification(self) -> float:
        return write_amp(self._user_write_bytes(), self._physical_write_bytes())

    def space_amplification(self) -> float:
        return space_amp(self._live_bytes(), self._stored_bytes())

    def read_amplification(self) -> float:
        return read_amp(self._user_reads(), self._device_reads())
