"""The instrumented hot paths publish into one shared registry."""

import json

import pytest

from repro.api.config import NodeConfig
from repro.common.units import MiB
from repro.db.database import PolarDB
from repro.obs.export import to_json
from repro.storage.store import PolarStore
from repro.workloads.sysbench import prepare_table, run_sysbench


@pytest.fixture(scope="module")
def loaded_db():
    # A tiny buffer pool forces miss traffic so every layer below the
    # db (storage reads, CSD devices, selector) sees real work.
    db = PolarDB(volume_bytes=64 * MiB, seed=1, buffer_pool_pages=4)
    done = prepare_table(db, rows=600, seed=1)
    run_sysbench(
        db, "read_write", duration_s=0.05, threads=4,
        key_range=600, start_us=done, seed=1,
    )
    return db


def test_single_registry_spans_all_layers(loaded_db):
    names = {i.name for i in loaded_db.metrics.instruments()}
    layers = {name.split(".", 1)[0] for name in names}
    assert {"storage", "csd", "compression", "db"} <= layers
    assert len(names) >= 10


def test_backward_compatible_stat_accessors(loaded_db):
    store = loaded_db.store
    leader = store.leader
    assert leader.page_write_stats.count > 0
    assert leader.page_write_stats.p95_us > 0.0
    assert leader.page_read_stats.mean_us > 0.0
    # FTLStats property API still reads through to the counters.
    ftl = leader.data_device.ftl
    assert ftl.stats.host_written_bytes > 0
    assert ftl.stats.write_amplification >= 1.0


def test_cache_and_selector_counters_flow_to_registry(loaded_db):
    metrics = loaded_db.metrics
    bp_hits = sum(c.value for c in metrics.find("db.bufferpool.hits"))
    bp_misses = sum(c.value for c in metrics.find("db.bufferpool.misses"))
    assert bp_hits > 0 and bp_misses > 0
    evaluations = metrics.find("compression.selector.evaluations")
    assert sum(c.value for c in evaluations) > 0


def test_snapshot_is_json_and_traced_write_sums(loaded_db):
    doc = json.loads(to_json(loaded_db.metrics))
    assert len(doc["instruments"]) >= 10
    # One more traced write: spans must sum to the commit latency.
    store = loaded_db.store
    start = 10_000_000.0
    result = store.write_page(start, 7, b"\x5a" * 16384)
    trace = store.metrics.tracer.last
    assert trace.root.name == "storage.page_write"
    assert sum(trace.breakdown().values()) == pytest.approx(
        result.commit_us - start, abs=1.0
    )


def test_device_histograms_labeled_per_node(loaded_db):
    hists = loaded_db.metrics.find("csd.device.write_us")
    assert any(h.count > 0 for h in hists)
    nodes = {h.labels.get("node") for h in hists}
    assert len(nodes) >= 2  # leader + replicas publish separately
