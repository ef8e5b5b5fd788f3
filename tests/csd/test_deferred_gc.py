"""Deferred FTL garbage collection on the event kernel (``defer_gc``)."""

import random

import pytest

from repro.common.units import DB_PAGE_SIZE, MiB
from repro.engine.core import Engine
from repro.obs.events import recording
from repro.storage.node import NodeConfig
from repro.storage.store import PolarStore


def make_page(seed=0):
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < DB_PAGE_SIZE:
        out += b"row|%08d|" % rng.randrange(10**8)
    return bytes(out[:DB_PAGE_SIZE])


def make_store(seed=9):
    return PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=seed)


def test_deferred_gc_drain_starts_and_ends_itself():
    """``engine.defer_gc`` used to bank relocation time that nothing but
    a test-started daemon ever charged.  Now the write that banks into
    an idle device starts the drain, the drain ends with the bank empty
    (so run-to-idle returns), and every banked microsecond is served by
    the data device: the drain's ``gc`` events add up to the bank."""
    from repro.api import PolarStore as Facade

    with recording() as rec:
        client = Facade.open(
            engine={"enabled": True, "defer_gc": True},
            store={"volume_bytes": 16 * MiB, "physical_bytes": 4 * MiB},
        )
        rng = random.Random(1)
        for _ in range(260):  # overwrites at ~45% live data: GC must relocate
            client.write_page(rng.randrange(120), rng.randbytes(DB_PAGE_SIZE))
        devices = [node.data_device for node in client.store.nodes]
        banked = [device._pending_gc_us for device in devices]
        assert all(us > 0.0 for us in banked)
        assert all(device._gc_draining for device in devices)
        seen = len(rec.events(channel="gc"))
        client.engine.run_until_idle()  # no limit: the drains must finish
        drained = {}
        for event in rec.events(channel="gc")[seen:]:
            if event.kind == "deferred_drain":
                key = (event.fields["node"], event.fields["device"])
                drained[key] = drained.get(key, 0.0) + event.fields["burst_us"]
    for device, banked_us in zip(devices, banked):
        assert device._pending_gc_us == 0.0 and not device._gc_draining
        key = (device.metric_labels["node"], device.spec.name)
        assert drained[key] == pytest.approx(banked_us, abs=1e-2)
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
