"""Span trees: nesting, exclusive-time telescoping, suppression, and the
end-to-end guarantee that a traced write's layer breakdown sums to its
simulated commit latency."""

import pytest

from repro.api.config import NodeConfig
from repro.common.units import MiB
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Trace, Tracer
from repro.storage.store import PolarStore


def test_span_nesting_and_exclusive_time():
    tracer = Tracer()
    root = tracer.begin("req", 0.0, layer="db")
    child = tracer.begin("storage", 10.0, layer="storage")
    grand = tracer.begin("device", 20.0, layer="csd")
    tracer.end(grand, 50.0)
    tracer.end(child, 70.0)
    tracer.end(root, 100.0)

    trace = tracer.last
    assert trace is not None
    assert trace.total_us == 100.0
    breakdown = trace.breakdown()
    assert breakdown == {"req": 40.0, "storage": 30.0, "device": 30.0}
    assert sum(breakdown.values()) == pytest.approx(trace.total_us)
    layers = trace.layer_breakdown()
    assert sum(layers.values()) == pytest.approx(trace.total_us)
    assert layers == {"db": 40.0, "storage": 30.0, "csd": 30.0}


def test_trace_records_histograms_into_registry():
    reg = MetricsRegistry()
    root = reg.tracer.begin("write", 0.0, layer="storage")
    sp = reg.tracer.begin("device", 2.0, layer="csd")
    reg.tracer.end(sp, 8.0)
    reg.tracer.end(root, 10.0)
    total = reg.get("trace.write.total_us", layer="storage")
    self_us = reg.get("trace.device.self_us", layer="csd")
    assert total is not None and total.count == 1
    assert total.max == 10.0
    assert self_us is not None and self_us.max == 6.0


def test_suppressed_spans_record_nothing():
    tracer = Tracer()
    with tracer.suppressed():
        assert tracer.begin("bg", 0.0) is None
    tracer.end(None, 5.0)  # a no-op, not an error
    assert tracer.last is None
    # Suppression nests and unwinds.
    with tracer.suppressed():
        with tracer.suppressed():
            assert tracer.begin("bg", 0.0) is None
    assert tracer.begin("fg", 0.0) is not None


def test_out_of_order_end_unwinds_stack():
    tracer = Tracer()
    root = tracer.begin("root", 0.0)
    tracer.begin("leak", 1.0)  # never explicitly ended
    tracer.end(root, 10.0)
    assert not tracer.active
    assert tracer.last.root.name == "root"


def test_span_rejects_negative_duration():
    span = Span("x", "storage", 10.0)
    with pytest.raises(ValueError):
        span.end(5.0)


def test_render_contains_all_spans():
    root = Span("req", "db", 0.0)
    Span("inner", "csd", 1.0, parent=root).end(3.0)
    root.end(5.0)
    text = Trace(root).render()
    assert "req" in text and "inner" in text and "layer csd" in text


def test_traced_page_write_layers_sum_to_commit_latency():
    """Acceptance criterion: per-layer span µs sum to the request's
    end-to-end simulated latency within 1 µs."""
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=3)
    page = bytes(range(256)) * 64  # 16 KiB
    result = store.write_page(0.0, 0, page)
    trace = store.metrics.tracer.last
    assert trace is not None
    assert trace.root.name == "storage.page_write"
    end_to_end = result.commit_us - 0.0
    assert trace.total_us == pytest.approx(end_to_end, abs=1e-6)
    assert sum(trace.breakdown().values()) == pytest.approx(
        end_to_end, abs=1.0
    )
    assert sum(trace.layer_breakdown().values()) == pytest.approx(
        end_to_end, abs=1.0
    )


def test_traced_redo_commit_sums_to_commit_latency():
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=3)
    from repro.storage.redo import RedoRecord

    records = [RedoRecord(lsn=1, page_no=0, offset=0, data=b"x" * 200)]
    start = 5.0
    commit = store.write_redo(start, records)
    trace = store.metrics.tracer.last
    assert trace is not None
    assert trace.root.name == "storage.redo_commit"
    assert sum(trace.breakdown().values()) == pytest.approx(
        commit - start, abs=1.0
    )
