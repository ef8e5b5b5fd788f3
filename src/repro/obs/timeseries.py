"""Counters sliced over simulated-time windows.

Benchmarks want throughput-over-time curves (ops/s as GC kicks in, commit
rate during a migration) without keeping per-op samples.  A
:class:`TimeSeries` buckets increments into fixed ``window_us`` slices of
the simulated clock; memory is bounded by ``max_windows`` — when the
span of observed windows exceeds it, the oldest windows are dropped (the
recent curve is what plots use).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.metrics import Instrument


class TimeSeries(Instrument):
    """Per-window accumulator on the simulated microsecond clock."""

    kind = "timeseries"

    def __init__(self, name: str, labels=None, window_us: float = 1e6,
                 max_windows: int = 4096):
        super().__init__(name, labels)
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us}")
        self.window_us = float(window_us)
        self.max_windows = max_windows
        self._windows: Dict[int, float] = {}
        self.total = 0.0

    def record(self, t_us: float, value: float = 1.0) -> None:
        idx = int(t_us // self.window_us)
        self._windows[idx] = self._windows.get(idx, 0.0) + value
        self.total += value
        if len(self._windows) > self.max_windows:
            for old in sorted(self._windows)[: len(self._windows)
                                             - self.max_windows]:
                del self._windows[old]

    def points(self) -> List[Tuple[float, float]]:
        """``(window_start_us, value)`` pairs in time order."""
        return [
            (idx * self.window_us, self._windows[idx])
            for idx in sorted(self._windows)
        ]

    def merged(self, other: "TimeSeries") -> "TimeSeries":
        if self.window_us != other.window_us:
            raise ValueError(
                f"cannot merge {self.name}: window sizes differ"
            )
        out = TimeSeries(self.name, self.labels, self.window_us,
                         self.max_windows)
        out._windows = dict(self._windows)
        for idx, value in other._windows.items():
            out._windows[idx] = out._windows.get(idx, 0.0) + value
        out.total = self.total + other.total
        return out

    def reset(self) -> None:
        self._windows.clear()
        self.total = 0.0

    def payload(self) -> Dict:
        return {
            "window_us": self.window_us,
            "total": self.total,
            "points": [[t, v] for t, v in self.points()],
        }
