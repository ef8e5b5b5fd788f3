"""JSON and Prometheus text exporters."""

import json
import re

from repro.obs.export import prometheus_name, to_json, to_prometheus
from repro.obs.metrics import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("storage.wal_flushes", node="node-0").inc(3)
    reg.gauge("csd.ftl.live_bytes").set(4096.0)
    hist = reg.histogram("storage.page_write_us")
    for value in (10.0, 20.0, 500.0):
        hist.record(value)
    return reg


def test_json_roundtrip_contains_every_instrument():
    reg = _sample_registry()
    doc = json.loads(to_json(reg))
    names = {i["name"] for i in doc["instruments"]}
    assert names == {
        "storage.wal_flushes",
        "csd.ftl.live_bytes",
        "storage.page_write_us",
    }
    by_name = {i["name"]: i for i in doc["instruments"]}
    assert by_name["storage.wal_flushes"]["labels"] == {"node": "node-0"}
    assert by_name["storage.wal_flushes"]["value"] == 3.0
    assert by_name["storage.page_write_us"]["count"] == 3


def test_prometheus_name_sanitization():
    assert prometheus_name("storage.page_write_us") == "storage_page_write_us"
    assert prometheus_name("9lives") == "_9lives"
    assert prometheus_name("a:b") == "a:b"


def test_prometheus_counter_and_gauge_lines():
    text = to_prometheus(_sample_registry())
    assert "# TYPE storage_wal_flushes counter" in text
    assert 'storage_wal_flushes{node="node-0"} 3' in text
    assert "# TYPE csd_ftl_live_bytes gauge" in text
    assert "csd_ftl_live_bytes 4096" in text


def test_prometheus_histogram_format():
    text = to_prometheus(_sample_registry())
    assert "# TYPE storage_page_write_us histogram" in text
    bucket_lines = [
        line for line in text.splitlines()
        if line.startswith("storage_page_write_us_bucket")
    ]
    # Cumulative counts, ending with the +Inf catch-all equal to count.
    assert bucket_lines[-1] == 'storage_page_write_us_bucket{le="+Inf"} 3'
    counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
    assert counts == sorted(counts)
    assert "storage_page_write_us_sum 530" in text
    assert "storage_page_write_us_count 3" in text


def test_prometheus_lines_are_well_formed():
    line_re = re.compile(
        r"^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+"
        r"|# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+"
        r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.+eE\-infINF]+)$"
    )
    for line in to_prometheus(_sample_registry()).strip().splitlines():
        assert line_re.match(line), line


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter(
        "io.errors", path='C:\\disk"0"', detail="line1\nline2"
    ).inc(1)
    text = to_prometheus(reg)
    assert (
        'io_errors{detail="line1\\nline2",path="C:\\\\disk\\"0\\""} 1'
        in text
    )
    # The physical output stays one line per sample: the newline in the
    # label value must never split the line.
    assert all(
        line.startswith(("#", "io_errors"))
        for line in text.strip().splitlines()
    )


def test_prometheus_help_and_type_once_per_family():
    reg = MetricsRegistry()
    # Three labeled variants of one family, plus two dotted names that
    # sanitize to the same Prometheus family name.
    for node in ("node-0", "node-1", "node-2"):
        reg.counter("storage.wal_flushes", node=node).inc(1)
    reg.gauge("a.b_c").set(1.0)
    reg.gauge("a_b.c").set(2.0)
    lines = to_prometheus(reg).splitlines()
    help_lines = [l for l in lines if l.startswith("# HELP ")]
    type_lines = [l for l in lines if l.startswith("# TYPE ")]
    families = [l.split()[2] for l in type_lines]
    assert len(families) == len(set(families))
    assert families.count("storage_wal_flushes") == 1
    assert families.count("a_b_c") == 1
    assert [l.split()[2] for l in help_lines] == families
    # HELP precedes TYPE for each family.
    for help_line, type_line in zip(help_lines, type_lines):
        assert lines.index(help_line) == lines.index(type_line) - 1


def test_prometheus_golden_output():
    """Byte-for-byte golden of a tiny registry (format stability)."""
    reg = MetricsRegistry()
    reg.counter("storage.wal_flushes", node="node-0").inc(3)
    reg.gauge("csd.ftl.live_bytes").set(4096.0)
    expected = (
        "# HELP csd_ftl_live_bytes repro instrument csd.ftl.live_bytes\n"
        "# TYPE csd_ftl_live_bytes gauge\n"
        "csd_ftl_live_bytes 4096\n"
        "# HELP storage_wal_flushes repro instrument storage.wal_flushes\n"
        "# TYPE storage_wal_flushes counter\n"
        'storage_wal_flushes{node="node-0"} 3\n'
    )
    assert to_prometheus(reg) == expected


# -- chaos counters flow through both exporters --------------------------------


def _chaos_registry() -> MetricsRegistry:
    """A registry shaped like a post-chaos-run volume's."""
    reg = MetricsRegistry()
    reg.counter("chaos.injected", kind="bit_flip", device="node-0:data").inc(4)
    reg.counter("chaos.injected", kind="torn_write", device="node-0:data").inc(2)
    reg.counter("chaos.detected", kind="bit_flip").inc(3)
    reg.counter("chaos.repaired", kind="bit_flip").inc(3)
    reg.counter("chaos.unrepairable", kind="torn_write").inc(1)
    reg.counter("chaos.hedged_reads").inc(2)
    reg.counter("chaos.wal_replays", node="node-2").inc(1)
    reg.counter("chaos.resynced_pages", node="node-2").inc(17)
    reg.counter("chaos.scrub_pages", node="node-1").inc(64)
    return reg


def test_json_exports_chaos_counters_with_labels():
    doc = json.loads(to_json(_chaos_registry()))
    chaos = [
        i for i in doc["instruments"] if i["name"].startswith("chaos.")
    ]
    assert len(chaos) == 9
    assert all(i["type"] == "counter" for i in chaos)
    by_key = {
        (i["name"], tuple(sorted(i["labels"].items()))): i["value"]
        for i in chaos
    }
    assert by_key[(
        "chaos.injected",
        (("device", "node-0:data"), ("kind", "bit_flip")),
    )] == 4.0
    assert by_key[("chaos.repaired", (("kind", "bit_flip"),))] == 3.0
    assert by_key[("chaos.resynced_pages", (("node", "node-2"),))] == 17.0


def test_prometheus_exports_chaos_counters_with_labels():
    text = to_prometheus(_chaos_registry())
    assert "# TYPE chaos_injected counter" in text
    assert (
        'chaos_injected{device="node-0:data",kind="bit_flip"} 4' in text
    )
    assert 'chaos_detected{kind="bit_flip"} 3' in text
    assert 'chaos_unrepairable{kind="torn_write"} 1' in text
    assert "chaos_hedged_reads 2" in text
    assert 'chaos_wal_replays{node="node-2"} 1' in text


def test_live_chaos_run_exports_in_both_formats():
    """End to end: damage a real replicated write, let the read path
    repair it, and check the counters surface in both exports."""
    from repro.chaos.plan import FaultKind, FaultPlan, FaultRule
    from repro.common.units import DB_PAGE_SIZE, MiB
    from repro.storage.node import NodeConfig
    from repro.storage.store import PolarStore

    import numpy as np

    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=0)
    plan = FaultPlan(seed=1)
    plan.add(
        FaultRule(
            FaultKind.TORN_WRITE,
            scope=f"{store.leader.name}:data",
            max_count=1,
        )
    )
    plan.attach_to_store(store)
    page = np.random.default_rng(0).integers(
        0, 256, DB_PAGE_SIZE, dtype=np.uint8
    ).tobytes()
    now = store.write_page(0.0, 1, page).commit_us
    assert store.read_page(now, 1).data == page

    doc = json.loads(to_json(store.metrics))
    names = {i["name"] for i in doc["instruments"]}
    assert {"chaos.detected", "chaos.repaired"} <= names

    text = to_prometheus(store.metrics)
    assert 'chaos_detected{kind="torn_write"} 1' in text
    assert 'chaos_repaired{kind="torn_write"} 1' in text
