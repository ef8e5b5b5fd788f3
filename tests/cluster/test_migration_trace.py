"""Tracer spans across a migration's engine yields.

A chunk migration daemon yields through dozens of engine waits, so the
runtime emits its span tree retrospectively at cutover.  These tests pin
the property the per-layer breakdowns rely on: the three phase spans
tile the root exactly, so exclusive times always telescope to the
end-to-end migration latency.
"""

import math

import pytest

from repro.api import ReproConfig
from repro.bench.cluster_fig import build_skewed_runtime
from repro.cluster.runtime import ClusterRuntime
from repro.cluster.scheduler import CompressionAwareScheduler
from repro.common.units import MiB
from repro.obs.events import recording

PHASES = (
    "cluster.migrate.copy",
    "cluster.migrate.catchup",
    "cluster.migrate.cutover",
)


def _bare_runtime() -> ClusterRuntime:
    doc = {
        "store": {"volume_bytes": 16 * MiB},
        "engine": {"enabled": True},
        "cluster": {"shards": 2},
    }
    return ClusterRuntime(ReproConfig.from_dict(doc))


def test_retrospective_trace_tiles_the_root():
    runtime = _bare_runtime()
    runtime._trace_migration(100.0, 400.0, 450.0, 700.0)
    trace = runtime.metrics.tracer.last
    assert trace is not None
    root = trace.root
    assert root.name == "cluster.migrate_chunk"
    assert [c.name for c in root.children] == list(PHASES)
    # Children tile [started, ended] with no gaps or overlap.
    assert root.children[0].start_us == root.start_us
    for left, right in zip(root.children, root.children[1:]):
        assert left.end_us == right.start_us
    assert root.children[-1].end_us == root.end_us
    # So the root keeps zero exclusive time and the phase exclusives sum
    # to the end-to-end latency.
    assert root.exclusive_us == 0.0
    assert trace.breakdown() == {
        "cluster.migrate_chunk": 0.0,
        "cluster.migrate.copy": 300.0,
        "cluster.migrate.catchup": 50.0,
        "cluster.migrate.cutover": 250.0,
    }
    assert sum(trace.breakdown().values()) == trace.total_us == 600.0


def test_trace_histograms_record_each_phase():
    runtime = _bare_runtime()
    runtime._trace_migration(0.0, 10.0, 30.0, 60.0)
    runtime._trace_migration(100.0, 140.0, 140.0, 200.0)
    reg = runtime.metrics
    total = reg.get("trace.cluster.migrate_chunk.total_us", layer="cluster")
    assert total.count == 2 and total.total == 160.0
    for name, want in zip(PHASES, (50.0, 20.0, 90.0)):
        hist = reg.get(f"trace.{name}.self_us", layer="cluster")
        assert hist.count == 2
        assert hist.total == pytest.approx(want)


def test_live_migration_spans_sum_to_end_to_end():
    """Integration: real rebalance migrations cross many engine yields,
    yet per-phase exclusive times still sum to the simulated end-to-end
    latency between each move's ``started`` and ``cutover_done`` events."""
    runtime, expected = build_skewed_runtime(shards=2, chunks=4, seed=0)
    with recording() as rec:
        report = runtime.rebalance(CompressionAwareScheduler())
    assert report.tasks  # the skewed layout demands movement
    events = rec.events(channel="migration")
    started = {
        ev.fields["chunk"]: ev.t_us for ev in events if ev.kind == "started"
    }
    moves_us = [
        ev.t_us - started[ev.fields["chunk"]]
        for ev in events if ev.kind == "cutover_done"
    ]
    reg = runtime.metrics
    total = reg.get("trace.cluster.migrate_chunk.total_us", layer="cluster")
    assert total.count == len(moves_us) == len(report.tasks)
    phase_sum = math.fsum(
        reg.get(f"trace.{name}.self_us", layer="cluster").total
        for name in PHASES
    )
    root_self = reg.get(
        "trace.cluster.migrate_chunk.self_us", layer="cluster"
    )
    assert root_self.total == 0.0
    assert phase_sum == pytest.approx(total.total)
    assert total.total == pytest.approx(math.fsum(moves_us))
    # The last published trace is a migration tree with the three phases.
    trace = reg.tracer.last
    assert trace.root.name == "cluster.migrate_chunk"
    assert sum(trace.breakdown().values()) == pytest.approx(trace.total_us)
    assert trace.total_us > 0.0
    # And the data all survived the moves the spans describe.
    for (table, key), value in expected.items():
        assert runtime.select(
            runtime.engine.now_us, table, key
        ).value == value
