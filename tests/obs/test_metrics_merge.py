"""Order-independent metric merges: folding registry captures from
several processes must not depend on the order they arrive in."""

import itertools
import random

from repro.obs.metrics import MetricsRegistry


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
