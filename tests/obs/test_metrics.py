"""Instruments: counters, gauges, histograms, bounded series, registry."""

import random

import pytest

from repro.common.latency import percentile
from repro.obs.metrics import (
    BoundedSeries,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


# ---------------------------------------------------------------------------
# Counter / Gauge
# ---------------------------------------------------------------------------


def test_counter_accumulates_and_rejects_negative():
    c = Counter("ops")
    c.inc()
    c.add(41.0)
    assert c.value == 42.0
    with pytest.raises(ValueError):
        c.inc(-1.0)
    c.reset()
    assert c.value == 0.0


def test_gauge_set_and_callback():
    g = Gauge("depth")
    g.set(7.0)
    assert g.value == 7.0

    state = {"v": 3.0}
    live = Gauge("live", fn=lambda: state["v"])
    assert live.value == 3.0
    state["v"] = 9.0
    assert live.value == 9.0  # evaluated at read time
    with pytest.raises(ValueError):
        live.set(1.0)
    live.reset()  # callback gauges ignore reset
    assert live.value == 9.0


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


def test_histogram_percentiles_close_to_exact():
    rng = random.Random(7)
    samples = [rng.lognormvariate(3.0, 1.2) for _ in range(20_000)]
    hist = Histogram("lat")
    hist.extend(samples)
    for pct in (50.0, 90.0, 95.0, 99.0):
        exact = percentile(samples, pct)
        approx = hist.percentile(pct)
        # Log-bucketed with growth 1.04: ~2% relative error bound.
        assert abs(approx - exact) / exact < 0.05, (pct, exact, approx)


def test_histogram_exact_summary_fields():
    hist = Histogram("lat")
    values = [1.0, 2.0, 3.0, 100.0]
    hist.extend(values)
    assert hist.count == 4
    assert hist.total == pytest.approx(sum(values))
    assert hist.mean == pytest.approx(sum(values) / 4)
    assert hist.min == 1.0
    assert hist.max == 100.0
    assert hist.percentile(0.0) == 1.0
    assert hist.percentile(100.0) <= hist.max


def test_histogram_empty_and_negative():
    hist = Histogram("lat")
    assert hist.mean == 0.0
    assert hist.p95 == 0.0
    hist.record(-5.0)  # clamped to 0
    assert hist.min == 0.0


def test_histogram_merge_is_associative_and_commutative():
    rng = random.Random(11)
    parts = []
    for _ in range(3):
        h = Histogram("lat")
        h.extend(rng.uniform(0.5, 5000.0) for _ in range(1000))
        parts.append(h)
    a, b, c = parts
    left = a.merged(b).merged(c)
    right = a.merged(b.merged(c))
    swapped = c.merged(a).merged(b)
    for pct in (50.0, 95.0, 99.0):
        assert left.percentile(pct) == right.percentile(pct)
        assert left.percentile(pct) == swapped.percentile(pct)
    assert left.count == right.count == swapped.count == 3000
    assert left.total == pytest.approx(right.total)


def test_histogram_merge_rejects_incompatible_layouts():
    a = Histogram("lat", growth=1.04)
    b = Histogram("lat", growth=1.5)
    with pytest.raises(ValueError):
        a.merged(b)


def test_histogram_fraction_above():
    hist = Histogram("lat")
    hist.extend([1.0] * 90 + [4000.0] * 10)
    assert hist.fraction_above(100.0) == pytest.approx(0.10)


def test_histogram_matches_latencystats_convention_on_small_sets():
    # Nearest-rank on tiny sample sets must agree within bucket error.
    samples = [10.0, 20.0, 30.0, 40.0, 50.0]
    hist = Histogram("lat")
    hist.extend(samples)
    exact = percentile(samples, 50.0)
    assert abs(hist.p50 - exact) / exact < 0.05


# ---------------------------------------------------------------------------
# BoundedSeries
# ---------------------------------------------------------------------------


def test_bounded_series_len_counts_everything_window_is_bounded():
    series = BoundedSeries(Histogram("lat"), window=16)
    for i in range(100):
        series.append(float(i + 1))
    assert len(series) == 100  # list-compatible total count
    assert len(list(series)) == 16  # but memory is bounded
    assert list(series)[-1] == 100.0
    assert series.mean_us == pytest.approx(sum(range(1, 101)) / 100)
    assert series.max_us == 100.0
    assert series.p95_us > series.p50_us
    series.clear()
    assert len(series) == 0
    assert not series


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    a = reg.counter("ops", node="n0")
    b = reg.counter("ops", node="n0")
    other = reg.counter("ops", node="n1")
    assert a is b
    assert a is not other
    assert len(reg.find("ops")) == 2


def test_registry_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.histogram("x")


def test_registry_snapshot_and_reset():
    reg = MetricsRegistry()
    reg.counter("ops").inc(5)
    reg.histogram("lat").record(12.0)
    reg.gauge_fn("live", lambda: 3.0)
    snap = reg.snapshot()
    by_name = {i["name"]: i for i in snap["instruments"]}
    assert by_name["ops"]["value"] == 5.0
    assert by_name["lat"]["count"] == 1
    assert by_name["live"]["value"] == 3.0
    reg.reset()
    assert reg.counter("ops").value == 0.0
    assert reg.histogram("lat").count == 0
    assert reg.gauge_fn("live", lambda: 3.0).value == 3.0  # unaffected
