"""The sharded cluster runtime: routing, live migration, cutover safety."""

import random

import pytest

from repro.api import PolarStore, ReproConfig
from repro.chaos.plan import FaultKind, FaultPlan, FaultRule
from repro.cluster.runtime import (
    CHUNK_KEYS,
    MIGRATION_STREAMS,
    ChunkState,
    ClusterRuntime,
    decode_row_page,
    encode_row_page,
)
from repro.common.errors import ReproError, SchedulingError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.engine.core import Timeout


def make_runtime(shards=2):
    doc = {
        "store": {"volume_bytes": 16 * MiB},
        "engine": {"enabled": True},
        "cluster": {"shards": shards},
    }
    return ClusterRuntime(ReproConfig.from_dict(doc))


def counter_total(store, name):
    return sum(
        int(inst.value) for inst in store.metrics.instruments()
        if inst.kind == "counter" and inst.name == name
    )


# -- row page codec ---------------------------------------------------------

def test_row_page_round_trip():
    image = encode_row_page(42, b"hello world")
    assert len(image) == DB_PAGE_SIZE
    assert decode_row_page(image) == (42, b"hello world")


def test_row_page_filler_tracks_value_compressibility():
    image = encode_row_page(1, b"ab")
    # The filler tiles the value, not zeros: page bytes repeat the row.
    assert image[12:].count(b"ab") > 4000


def test_row_value_must_fit_one_page():
    with pytest.raises(ReproError, match="exceeds"):
        encode_row_page(1, b"x" * DB_PAGE_SIZE)


# -- routing ----------------------------------------------------------------

def test_range_sharding_routes_by_chunk():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    keys = range(3 * CHUNK_KEYS)
    for key in keys:
        runtime.insert(runtime.engine.now_us, "t", key, bytes([key]) * 8)
    # Three chunks' worth of keys, spread by least-logical placement.
    assert len(runtime.chunks) == 3
    owners = {c.shard_id for c in runtime.chunks.values()}
    assert owners == {0, 1}
    for key in keys:
        result = runtime.select(runtime.engine.now_us, "t", key)
        assert result.value == bytes([key]) * 8


def test_range_select_spans_chunks():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    for key in range(2 * CHUNK_KEYS + 2):
        runtime.insert(runtime.engine.now_us, "t", key, bytes([65 + key]))
    low, high = CHUNK_KEYS - 2, CHUNK_KEYS + 3
    result = runtime.range_select(runtime.engine.now_us, "t", low, high)
    assert result.value == bytes(65 + key for key in range(low, high + 1))


def test_missing_table_and_keys_raise():
    runtime = make_runtime()
    with pytest.raises(ReproError, match="no such table"):
        runtime.select(0.0, "ghost", 1)
    runtime.create_table("t")
    with pytest.raises(ReproError, match="not found"):
        runtime.select(0.0, "t", 1)
    runtime.insert(0.0, "t", 1, b"v")
    with pytest.raises(ReproError, match="missing key"):
        runtime.update(runtime.engine.now_us, "t", 2, b"v")
    with pytest.raises(ReproError, match="missing key"):
        runtime.delete(runtime.engine.now_us, "t", 2)


def test_needs_at_least_two_shards():
    with pytest.raises(ReproError, match="shards"):
        ClusterRuntime(ReproConfig())


def test_delete_frees_space_on_owner():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    runtime.insert(0.0, "t", 1, b"v" * 32)
    chunk = next(iter(runtime.chunks.values()))
    leader = runtime.owner(chunk).store.leader
    page_no = chunk.rows[1]
    assert leader.page_stored_bytes(page_no) > 0
    runtime.delete(runtime.engine.now_us, "t", 1)
    assert leader.index.get(page_no) is None
    assert chunk.logical_bytes == 0


# -- live migration ---------------------------------------------------------

def test_migration_moves_real_compressed_pages():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    for key in range(CHUNK_KEYS):
        runtime.insert(runtime.engine.now_us, "t", key, b"compress-me" * 40)
    chunk = next(iter(runtime.chunks.values()))
    source_id = chunk.shard_id
    target_id = 1 - source_id
    t0 = runtime.engine.now_us
    moved = runtime.engine.run(
        runtime.migrate_chunk_proc(chunk.chunk_id, target_id)
    )
    assert moved == CHUNK_KEYS
    assert chunk.shard_id == target_id
    assert runtime.engine.now_us > t0  # the copy consumed simulated time
    # Source replicas hold no trace of the chunk's pages.
    source_leader = runtime.shards[source_id].store.leader
    for page_no in chunk.rows.values():
        assert source_leader.index.get(page_no) is None
    # The moved bytes are measured codec output: compressible rows land
    # physically smaller than their logical size.
    moved = runtime.moved
    assert moved.moved_logical_bytes == CHUNK_KEYS * DB_PAGE_SIZE
    assert 0 < moved.moved_physical_bytes < moved.moved_logical_bytes
    migrations = runtime.metrics.get(
        "trace.cluster.migrate_chunk.total_us", layer="cluster"
    )
    assert migrations.count == 1
    # Rows stay readable from the new owner.
    for key in range(CHUNK_KEYS):
        result = runtime.select(runtime.engine.now_us, "t", key)
        assert result.value == b"compress-me" * 40


def test_migration_rejects_bad_targets():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    runtime.insert(0.0, "t", 1, b"v")
    chunk = next(iter(runtime.chunks.values()))
    with pytest.raises(SchedulingError, match="not found"):
        runtime.engine.run(runtime.migrate_chunk_proc(999, 1))
    with pytest.raises(SchedulingError, match="already on target"):
        runtime.engine.run(
            runtime.migrate_chunk_proc(chunk.chunk_id, chunk.shard_id)
        )


def test_migration_catches_up_with_concurrent_writers():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    expected = {}
    for key in range(CHUNK_KEYS):
        value = bytes([key]) * 200
        runtime.insert(runtime.engine.now_us, "t", key, value)
        expected[("t", key)] = value
    chunk = next(iter(runtime.chunks.values()))
    target_id = 1 - chunk.shard_id
    engine = runtime.engine

    def writer():
        for i in range(30):
            key = i % CHUNK_KEYS
            value = bytes([(key + 100) % 256]) * 150
            yield from runtime.insert_proc("t", key, value)
            expected[("t", key)] = value
            yield Timeout(3.0)

    def deleter():
        yield Timeout(10.0)
        yield from runtime.delete_proc("t", 3)
        expected.pop(("t", 3), None)

    procs = [
        engine.spawn(writer()),
        engine.spawn(deleter()),
        engine.spawn(runtime.migrate_chunk_proc(chunk.chunk_id, target_id)),
    ]
    engine.run_until_complete(procs)
    assert chunk.shard_id == target_id
    assert chunk.state is ChunkState.SERVING
    # Every acknowledged write survived the cutover, byte-exact.
    assert runtime.verify_readable(expected) == len(expected)
    assert runtime.moved.catchup_pages > 0  # the journal replayed deltas


def test_cutover_gate_blocks_writes_until_flip():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    runtime.insert(0.0, "t", 1, b"before")
    chunk = next(iter(runtime.chunks.values()))
    engine = runtime.engine
    # Freeze the chunk in CUTOVER by hand, then release it from a timer:
    # the writer must block on the gate and commit on the new owner.
    chunk.state = ChunkState.CUTOVER
    chunk.gate = engine.event("test-gate")
    target_id = 1 - chunk.shard_id

    def release():
        yield Timeout(500.0)
        chunk.shard_id = target_id
        chunk.state = ChunkState.SERVING
        gate, chunk.gate = chunk.gate, None
        gate.succeed(engine.now_us)

    t0 = engine.now_us
    writer = engine.spawn(runtime.insert_proc("t", 1, b"after"))
    engine.spawn(release())
    engine.run_until_complete([writer])
    assert writer.value.done_us >= t0 + 500.0
    result = runtime.select(engine.now_us, "t", 1)
    assert result.value == b"after"


def test_migration_streams_throttle_concurrency():
    runtime = make_runtime(shards=4)
    runtime.create_table("t")
    moves = MIGRATION_STREAMS + 1
    for key in range(moves * CHUNK_KEYS):  # one chunk on each of shards 0..
        runtime.insert(runtime.engine.now_us, "t", key, bytes([key]) * 64)
    chunks = list(runtime.chunks.values())
    assert sorted(c.shard_id for c in chunks) == list(range(moves))
    engine = runtime.engine
    procs = [
        engine.spawn(runtime.migrate_chunk_proc(c.chunk_id, moves))
        for c in chunks
    ]
    in_flight = []

    def monitor():
        while not all(p.done for p in procs):
            in_flight.append(
                sum(c.state is not ChunkState.SERVING for c in chunks)
            )
            yield Timeout(10.0)

    engine.spawn(monitor())
    engine.run_until_complete(procs)
    assert all(c.shard_id == moves for c in chunks)
    # A move holds a stream token from before it leaves SERVING until it
    # is back: the streams bound the moves in flight, and they fill up.
    assert max(in_flight) == MIGRATION_STREAMS
    migrations = runtime.metrics.get(
        "trace.cluster.migrate_chunk.total_us", layer="cluster"
    )
    assert migrations.count == moves


def test_cutover_loses_nothing_under_fault_injection():
    """The chaos variant of the catch-up test: the source shard's leader
    data device flips bits and tears writes, so migration reads hit
    corrupt pages and must detect-and-repair while a writer races the
    cutover."""
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    rng = random.Random(5)
    expected = {}

    def row():
        # Incompressible, so a flipped bit or a torn tail lands in the
        # stored payload rather than in the zero padding behind it.
        return rng.randbytes(DB_PAGE_SIZE - 16)

    runtime.insert(0.0, "t", 0, row())
    chunk = next(iter(runtime.chunks.values()))
    source = runtime.owner(chunk).store
    plan = FaultPlan(seed=7)
    scope = f"{source.leader.name}:data"
    plan.add(FaultRule(FaultKind.BIT_FLIP, probability=0.3, scope=scope))
    plan.add(FaultRule(FaultKind.TORN_WRITE, probability=0.2, scope=scope))
    plan.attach_to_store(source)
    for key in range(CHUNK_KEYS):
        expected[("t", key)] = value = row()
        runtime.insert(runtime.engine.now_us, "t", key, value)
    target_id = 1 - chunk.shard_id
    engine = runtime.engine

    def writer():
        for i in range(24):
            key = i % CHUNK_KEYS
            value = row()
            yield from runtime.insert_proc("t", key, value)
            expected[("t", key)] = value
            yield Timeout(5.0)

    procs = [
        engine.spawn(writer()),
        engine.spawn(runtime.migrate_chunk_proc(chunk.chunk_id, target_id)),
    ]
    engine.run_until_complete(procs)
    assert chunk.shard_id == target_id
    detected = counter_total(source, "chaos.detected")
    assert detected == counter_total(source, "chaos.repaired") > 0
    assert counter_total(source, "chaos.unrepairable") == 0
    assert runtime.verify_readable(expected) == CHUNK_KEYS


# -- scheduler bridge -------------------------------------------------------

def test_snapshot_mirrors_measured_state():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    for key in range(2 * CHUNK_KEYS):
        runtime.insert(runtime.engine.now_us, "t", key, b"abc" * 100)
    abstract, owner = runtime.snapshot()
    assert len(abstract.servers) == 2
    mirrored = [c for s in abstract.servers for c in s.chunks.values()]
    assert {c.chunk_id for c in mirrored} == set(runtime.chunks)
    for chunk in mirrored:
        assert chunk.logical_bytes == CHUNK_KEYS * DB_PAGE_SIZE
        assert chunk.compression_ratio >= 1.0
        assert owner[chunk.chunk_id] == runtime.chunks[
            chunk.chunk_id
        ].shard_id


def test_rebalance_keeps_every_row_and_does_not_lower_band_coverage():
    """Zone scheduling executed as real data movement: the skewed layout
    demands migrations, every byte survives them, and the fleet ends up
    no further from the compression-ratio band than it started."""
    from repro.bench.cluster_fig import build_skewed_runtime
    from repro.cluster.scheduler import (
        CompressionAwareScheduler,
        band_coverage,
    )

    runtime, expected = build_skewed_runtime(shards=2, chunks=4, seed=0)
    scheduler = CompressionAwareScheduler(band_width=0.10)

    def coverage():
        abstract, _ = runtime.snapshot()
        return band_coverage(abstract, *scheduler.band(abstract))

    before = coverage()
    report = runtime.rebalance(scheduler)
    assert report.tasks and report.moved_pages > 0
    assert runtime.verify_readable(expected) == len(expected)
    assert coverage() >= before


def test_rebalance_skips_net_noop_moves():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    runtime.insert(0.0, "t", 1, b"v" * 16)
    chunk = next(iter(runtime.chunks.values()))
    from repro.cluster.scheduler import MigrationTask

    home = chunk.shard_id
    away = 1 - home
    report = runtime.execute([
        MigrationTask(chunk.chunk_id, home, away),
        MigrationTask(chunk.chunk_id, away, home),  # net no-op
    ])
    assert len(report.tasks) == 2
    assert report.moved_pages == 0
    assert chunk.shard_id == home


def test_zone_occupancy_shape():
    runtime = make_runtime(shards=2)
    runtime.create_table("t")
    for key in range(8):
        runtime.insert(runtime.engine.now_us, "t", key, b"z" * 50)
    zones = runtime.zone_occupancy()
    assert set(zones) == {"A", "B", "C", "D"}
    assert sum(zones.values()) == 2
