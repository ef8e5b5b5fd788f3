"""Closing a deployment frees it by reference counting.

Strong references point down from the volume and nothing points back up
(DESIGN.md, "Ownership"): a closed deployment's object graph holds no
reference cycle, so it is freed the moment its last reference goes
rather than at some later full collection.  Each test builds one
deployment shape under ``gc.DEBUG_SAVEALL``, closes and drops it, and
collects: every object the collector had to free lands in
``gc.garbage``, and none of them may be one of ours.
"""

import collections
import gc

import pytest

from repro.api import PolarStore
from repro.baselines.innodb import InnoDBEngine
from repro.baselines.myrocks import MyRocksEngine
from repro.common.units import MiB
from repro.net.server import serve_in_thread

ROW = b"r" * 100


def cyclic_garbage(build) -> collections.Counter:
    """Run ``build`` (which builds, uses and closes a deployment and
    keeps no reference to it) and count, by type, the ``repro`` objects
    that only the cycle collector could free."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build()
        gc.collect()
        return collections.Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def use_table(client, rows=40) -> None:
    client.create_table("t")
    for key in range(rows):
        client.insert("t", key, ROW)
    for key in range(0, rows, 3):
        client.update("t", key, ROW[::-1])
    client.checkpoint()
    assert client.select("t", 7).value == ROW


def plain() -> None:
    client = PolarStore.open()
    client.write_page(0, bytes(range(256)) * 64)
    assert client.read_page(0).data == bytes(range(256)) * 64
    client.close()


def engine_bound() -> None:
    client = PolarStore.open(engine={"enabled": True})
    use_table(client)
    engine = client.engine

    def never_woken():
        yield engine.event("never")
        yield from client.update_proc("t", 1, ROW)

    # Two processes left pending: one scheduled and not yet run, one
    # waiting on an event nothing fires.
    engine.spawn(client.update_proc("t", 2, ROW))
    engine.spawn(never_woken())
    engine.run_until_idle(limit_us=engine.now_us)
    client.close()


def ro_node() -> None:
    client = PolarStore.open(db={"ro_nodes": 1})
    use_table(client)
    assert client.select("t", 3, ro_index=0).value is not None
    client.close()


def sharded() -> None:
    client = PolarStore.open(cluster={"shards": 2})
    use_table(client)
    client.close()


def innodb() -> None:
    engine = InnoDBEngine(volume_bytes=64 * MiB)
    engine.create_table("t")
    now = 0.0
    for key in range(40):
        now = engine.insert(now, "t", key, ROW).done_us
    engine.checkpoint(now)


def myrocks() -> None:
    engine = MyRocksEngine(volume_bytes=64 * MiB)
    engine.create_table("t")
    now = 0.0
    for key in range(40):
        now = engine.insert(now, "t", key, ROW).done_us
    assert engine.select(now, "t", 5).value == ROW


def served() -> None:
    handle = serve_in_thread()
    client = PolarStore.connect(handle.addr)
    try:
        use_table(client)
    finally:
        client.close()
        handle.stop()


@pytest.mark.parametrize("build", [
    plain, engine_bound, ro_node, sharded, innodb, myrocks, served,
], ids=lambda build: build.__name__)
def test_a_closed_deployment_leaves_no_cyclic_garbage(build):
    assert cyclic_garbage(build) == {}


def test_the_guard_sees_a_cycle():
    """The probe itself: a back-reference planted on a closed volume is
    reported."""

    def planted() -> None:
        client = PolarStore.open()
        store = client.store
        store.nodes[0].owner = store
        client.close()

    assert cyclic_garbage(planted)["repro.storage.store.PolarStore"] == 1
