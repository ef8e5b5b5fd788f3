"""Latency statistics."""

import pytest

from repro.common.latency import LatencyStats, percentile


def test_percentile_nearest_rank():
    data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 50) == 5.0
    assert percentile(data, 95) == 10.0
    assert percentile(data, 100) == 10.0


def test_percentile_rejects_empty_and_bad_pct():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_stats_summaries():
    stats = LatencyStats()
    for i in range(1, 101):
        stats.record(float(i))
    assert stats.count == 100
    assert stats.mean_us == pytest.approx(50.5)
    assert stats.pct(50.0) == 50.0
    assert stats.p95_us == 95.0
    assert stats.p99_us == 99.0

