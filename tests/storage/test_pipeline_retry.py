"""Pipeline retry semantics: transient quorum loss heals, fencing retries.

The legacy contract (``test_commit_pipeline``) pins the two ends:
fail-fast once the deadline exhausts, and analytic equivalence on the
untroubled path.  This file covers the middle — a commit submitted
during a transient outage must *wait out* the outage and succeed, the
``storage.replication.retries`` counter must count the loop, and an epoch bump
mid-flight must fence the attempt and re-replicate.
"""

import pytest

from repro.common.errors import ReplicationError
from repro.common.units import MiB
from repro.engine import Engine
from repro.storage.node import NodeConfig
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore


def make_records(n, lsn0=1):
    return [RedoRecord(lsn0 + i, 3, 64 * i, b"r" * 100) for i in range(n)]


def make_store(seed=5):
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=seed)
    engine = Engine()
    store.bind_engine(engine)
    return store, engine


def test_commit_survives_transient_quorum_loss():
    store, engine = make_store()
    store.fail_node(1)
    store.fail_node(2)

    def healer():
        yield engine.timeout(8_000.0)
        store.recover_node(1)
        store.recover_node(2)

    client = engine.spawn(store.write_redo_proc(make_records(2)))
    engine.run_until_complete([engine.spawn(healer()), client])
    assert client.error is None
    assert client.value >= 8_000.0  # waited through the outage
    assert store.metrics.counter("storage.replication.retries").value >= 1


def test_exhausted_deadline_still_fails_fast():
    store, engine = make_store()
    store.fail_node(1)
    store.fail_node(2)
    with pytest.raises(ReplicationError, match="gave up"):
        engine.run(store.write_redo_proc(make_records(1)))
    assert store.metrics.counter("storage.replication.retries").value >= 1


def test_success_path_draws_no_retries():
    store, engine = make_store()
    commit = engine.run(store.write_redo_proc(make_records(2)))
    assert commit > 0.0
    assert store.metrics.counter("storage.replication.retries").value == 0


def test_epoch_bump_mid_flight_fences_then_retries():
    """Leadership moving while the fan-out is on the wire must fail that
    attempt (a deposed leader may not ack) and re-replicate under the
    new epoch."""
    store, engine = make_store()

    def usurper():
        yield engine.timeout(2.0)  # well inside the replication window
        store.group.elect(store.group.leader)  # same leader, new epoch

    client = engine.spawn(store.write_redo_proc(make_records(2)))
    engine.run_until_complete([engine.spawn(usurper()), client])
    assert client.error is None
    assert store.metrics.counter("storage.replication.retries").value >= 1
    # The batch still landed durably on the followers.
    assert any(node.durable_redo_blobs for node in store.nodes[1:])
