"""The percentile rule: a tail is reported at the highest percentile that
still has at least ten samples beyond it, capped at the one named."""

import pytest

import stats


@pytest.mark.parametrize("n, cap, expected", [
    (5, 99.0, 50.0),      # the median is always reportable
    (39, 99.0, 50.0),     # p75 would leave 9.75 samples beyond it
    (40, 99.0, 75.0),
    (99, 99.0, 75.0),
    (100, 99.0, 90.0),
    (199, 95.0, 90.0),
    (200, 95.0, 95.0),
    (200, 99.0, 95.0),
    (999, 99.0, 95.0),
    (1000, 99.0, 99.0),
    (100_000, 99.0, 99.0),   # capped at the percentile named
    (100_000, 95.0, 95.0),
])
def test_supported_percentile(n, cap, expected):
    assert stats.supported_percentile(n, cap) == expected


def test_tail_uses_nearest_rank():
    samples = list(range(1, 201))  # 1..200
    value, pct = stats.tail(samples, 95.0)
    assert pct == 95.0
    assert value == 190  # ceil(0.95 * 200) = rank 190
    value, pct = stats.tail(samples[:100], 95.0)
    assert (value, pct) == (90, 90.0)

