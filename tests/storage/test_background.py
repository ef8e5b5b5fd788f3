"""Background maintenance daemons on the event kernel."""

import random

import pytest

from repro.common.units import DB_PAGE_SIZE, MiB
from repro.engine import Engine
from repro.storage.background import (
    consolidator_proc,
    scrubber_proc,
    start_background,
)
from repro.storage.node import NodeConfig
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore


def make_page(seed=0):
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < DB_PAGE_SIZE:
        out += b"row|%08d|" % rng.randrange(10**8)
    return bytes(out[:DB_PAGE_SIZE])


def make_store(seed=9):
    return PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=seed)


def test_scrubber_daemon_steals_device_time():
    store = make_store()
    now = 0.0
    for i in range(6):
        now = store.write_page(now, i, make_page(i)).commit_us
    engine = Engine(start_us=now)
    store.bind_engine(engine)
    procs = start_background(
        store, engine, scrub_period_us=2_000.0, consolidate_period_us=None
    )

    def client():
        for i in range(6):
            yield engine.timeout(3_000.0)
            store.read_page(engine.now_us, i % 6)

    engine.run_until_complete([engine.spawn(client())])
    cycles = store.metrics.get("storage.background.scrub_cycles").value
    assert cycles >= 2
    assert store.metrics.get("chaos.scrub_pages").value > 0
    for proc in procs:
        proc.cancel()


def test_consolidator_drains_cached_redo():
    store = make_store()
    page = make_page(1)
    now = store.write_page(0.0, 3, page).commit_us
    # Leave un-materialized redo in the cache.
    now = store.write_redo(
        now, [RedoRecord(1, 3, 0, b"Y" * 64), RedoRecord(2, 3, 64, b"Z" * 64)]
    )
    assert store.leader.redo_cache.get(3)
    engine = Engine(start_us=now)
    store.bind_engine(engine)
    engine.spawn(consolidator_proc(store, engine, period_us=1_000.0))
    engine.run_until_idle(limit_us=now + 5_000.0)
    assert not store.leader.redo_cache.get(3)
    assert (
        store.metrics.get("storage.background.consolidate_cycles").value >= 1
    )
    # The materialized page reflects the consolidated redo.
    data = store.read_page(engine.now_us, 3).data
    assert data[:64] == b"Y" * 64


def test_deferred_gc_drain_starts_and_ends_itself():
    """``engine.defer_gc`` used to bank relocation time that nothing but
    a test-started daemon ever charged.  Now the write that banks into
    an idle device starts the drain, the drain ends with the bank empty
    (so run-to-idle returns), and every banked microsecond is served by
    the data device."""
    from repro.api import PolarStore as Facade

    client = Facade.open(
        engine={"enabled": True, "defer_gc": True},
        store={"volume_bytes": 16 * MiB, "physical_bytes": 4 * MiB},
    )
    rng = random.Random(1)
    for _ in range(260):  # overwrites at ~45% live data: GC must relocate
        client.write_page(rng.randrange(120), rng.randbytes(DB_PAGE_SIZE))
    devices = [node.data_device for node in client.store.nodes]
    banked = [device._pending_gc_us for device in devices]
    busy = [device.queue.total_busy_us for device in devices]
    assert all(us > 0.0 for us in banked)
    assert all(device._gc_draining for device in devices)
    client.engine.run_until_idle()  # no limit: the drains must finish
    for device, banked_us, busy_us in zip(devices, banked, busy):
        assert device._pending_gc_us == 0.0 and not device._gc_draining
        assert device.queue.total_busy_us == pytest.approx(busy_us + banked_us)
    # A later deposit starts a fresh drain.
    while devices[0]._pending_gc_us == 0.0:
        client.write_page(rng.randrange(120), rng.randbytes(DB_PAGE_SIZE))
    assert devices[0]._gc_draining
    client.engine.run_until_idle()
    assert devices[0]._pending_gc_us == 0.0


def test_deferred_gc_daemon_drains_banked_work():
    store = make_store()
    engine = Engine()
    store.bind_engine(engine, defer_gc=True)

    def writer():
        for i in range(40):
            yield from store.leader.data_device.write_proc(
                i * 8, make_page(i)[: 4 * 1024]
            )

    engine.run_until_complete([engine.spawn(writer())])
    engine.run_until_idle()
    assert store.leader.data_device._pending_gc_us == 0.0


def test_scrubber_repairs_corruption_in_background():
    from repro.chaos.plan import FaultKind, FaultPlan, FaultRule

    store = make_store()
    plan = FaultPlan(seed=3)
    plan.add(
        FaultRule(
            FaultKind.BIT_FLIP,
            scope=f"{store.leader.name}:data",
            max_count=1,
        )
    )
    plan.attach_to_store(store)
    # Incompressible payload: the flip must land in real bytes.
    page = random.Random(11).randbytes(DB_PAGE_SIZE)
    now = store.write_page(0.0, 1, page).commit_us
    assert plan.total_injected == 1
    engine = Engine(start_us=now)
    store.bind_engine(engine)
    engine.spawn(scrubber_proc(store, engine, period_us=1_000.0))
    engine.run_until_idle(limit_us=now + 20_000.0)
    repaired = [
        inst
        for inst in store.metrics.instruments()
        if inst.name == "chaos.repaired" and inst.value > 0
    ]
    assert repaired
