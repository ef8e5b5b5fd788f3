"""Simulated time.

The reproduction band for this paper notes that pure Python is too slow for
faithful wall-clock throughput evaluation, so the whole stack runs against a
logical clock measured in microseconds.  Components *charge* latency to the
clock instead of sleeping; benchmarks then report simulated latency and
simulated operations/second.

``SimClock`` is the monotonically advancing microsecond counter one
simulation shares; contention (device channels, CPU cores, NIC links) is
modelled by :class:`repro.engine.Resource`.
"""

from __future__ import annotations


class SimClock:
    """A logical microsecond clock for one simulation universe."""

    def __init__(self) -> None:
        self._now_us = 0.0

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_us

    def advance_to(self, when_us: float) -> float:
        """Move time forward to ``when_us`` (no-op if already later)."""
        if when_us > self._now_us:
            self._now_us = when_us
        return self._now_us

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now_us={self._now_us:.3f})"
