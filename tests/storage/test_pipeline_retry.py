"""Pipeline retry semantics: transient quorum loss heals, fencing retries.

The legacy contract (``test_commit_pipeline``) pins the two ends:
fail-fast once the deadline exhausts, and analytic equivalence on the
untroubled path.  This file covers the middle — a commit submitted
during a transient outage must *wait out* the outage and succeed, each
pass of the loop must emit a ``commit``/``retry`` flight-recorder event,
and an epoch bump mid-flight must fence the attempt and re-replicate.
"""

import pytest

from repro.api.config import NodeConfig
from repro.common.errors import ReplicationError
from repro.common.units import MiB
from repro.engine.core import Engine
from repro.obs.events import recording
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore


def make_records(n, lsn0=1):
    return [RedoRecord(lsn0 + i, 3, 64 * i, b"r" * 100) for i in range(n)]


def retries(rec):
    return [ev for ev in rec.events(channel="commit") if ev.kind == "retry"]


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
    with recording() as rec:
        engine.run_until_complete([engine.spawn(healer()), client])
    assert client.error is None
    assert client.value >= 8_000.0  # waited through the outage
    assert retries(rec)


def test_exhausted_deadline_still_fails_fast():
    store, engine = make_store()
    store.fail_node(1)
    store.fail_node(2)
    with recording() as rec, pytest.raises(ReplicationError, match="gave up"):
        engine.run(store.write_redo_proc(make_records(1)))
    assert retries(rec)


def test_success_path_draws_no_retries():
    store, engine = make_store()
    with recording() as rec:
        commit = engine.run(store.write_redo_proc(make_records(2)))
    assert commit > 0.0
    assert rec.events(channel="commit") and not retries(rec)


def test_epoch_bump_mid_flight_fences_then_retries():
    """Leadership moving while the fan-out is on the wire must fail that
    attempt (a deposed leader may not ack) and re-replicate under the
    new epoch."""
    store, engine = make_store()

    def usurper():
        yield engine.timeout(2.0)  # well inside the replication window
        store.group.elect(store.group.leader)  # same leader, new epoch

    client = engine.spawn(store.write_redo_proc(make_records(2)))
    with recording() as rec:
        engine.run_until_complete([engine.spawn(usurper()), client])
    assert client.error is None
    assert retries(rec)
    # The batch still landed durably on the followers.
    assert any(node.durable_redo_blobs for node in store.nodes[1:])
