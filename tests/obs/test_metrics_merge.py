"""Order-independent metric merges: folding registry captures from
several processes must not depend on the order they arrive in."""

import itertools
import random

from repro.obs.metrics import Histogram, MetricsRegistry


def _filled(name, seed, n=40):
    hist = Histogram(name)
    rng = random.Random(seed)
    for _ in range(n):
        hist.record(rng.uniform(0.01, 5000.0))
    return hist


def test_merged_many_is_permutation_independent():
    parts = [_filled("h", seed) for seed in range(5)]
    baseline = None
    for perm in itertools.permutations(parts):
        desc = Histogram.merged_many(perm).describe()
        if baseline is None:
            baseline = desc
        # Exact equality, including the float sum: bucket keys fold in
        # sorted order and the sum reduces with one math.fsum over the
        # whole multiset (correctly rounded), so no permutation can
        # drift by even one ulp.
        assert desc == baseline


def test_pairwise_merged_equals_merged_many():
    a, b = _filled("h", 1), _filled("h", 2)
    assert a.merged(b).describe() == Histogram.merged_many([a, b]).describe()


def test_merged_many_preserves_min_max_count():
    parts = [_filled("h", seed) for seed in range(3)]
    out = Histogram.merged_many(parts)
    assert out.count == sum(p.count for p in parts)
    assert out.min == min(p.min for p in parts)
    assert out.max == max(p.max for p in parts)


def _worker_registry(seed):
    """One worker's registry: shared histograms/counters plus a
    per-worker-labeled gauge (how disjoint shard gauges really look)."""
    reg = MetricsRegistry()
    rng = random.Random(seed)
    reg.counter("io.ops").inc(seed * 10 + 3)
    reg.gauge("depth", worker=seed).set(float(seed))
    hist = reg.histogram("io.lat_us")
    for _ in range(30):
        hist.record(rng.uniform(0.1, 900.0))
    return reg


def test_registry_state_round_trips():
    source = _worker_registry(7)
    clone = MetricsRegistry()
    clone.merge_states([source.state()])
    assert clone.snapshot() == source.snapshot()


def test_registry_merge_states_is_permutation_independent():
    states = [_worker_registry(seed).state() for seed in range(4)]
    snapshots = set()
    for perm in itertools.permutations(states):
        reg = MetricsRegistry()
        reg.merge_states(perm)
        snapshots.add(repr(reg.snapshot()))
    assert len(snapshots) == 1
