"""Leader failover on the volume: crash, deterministic successor, rejoin,
repair.

A leader crash hands leadership to the live replica with the highest
durable redo LSN (ties to the lowest index) and opens a new epoch.
"""

import pytest

from repro.chaos.plan import FaultKind, FaultPlan, FaultRule
from repro.common.errors import ReplicationError, ReproError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.engine import Engine
from repro.obs.events import recording
from repro.storage.node import NodeConfig
from repro.storage.redo import RedoRecord, decode_records
from repro.storage.store import PolarStore


def page(value):
    return bytes([value % 256]) * DB_PAGE_SIZE


def make_records(n, lsn0=1, page_no=2):
    return [
        RedoRecord(lsn0 + i, page_no, 64 * i, b"f" * 80) for i in range(n)
    ]


def make_store(seed=13):
    """A volume with pages 0..7 written; returns it and the volume time."""
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=seed)
    now = 0.0
    for p in range(8):
        now = store.write_page(now, p, page(p + 1)).commit_us
    return store, now


def make_engine_stack(seed=13):
    store, now = make_store(seed)
    engine = Engine(start_us=now)
    store.bind_engine(engine)
    return store, engine


def fail_device(store, index, now):
    """Fail replica ``index``'s devices from ``now``; returns the rule so
    the caller can close its window."""
    rule = FaultRule(
        FaultKind.DEVICE_FAIL, scope=store.nodes[index].name + ":",
        from_us=now,
    )
    plan = FaultPlan(seed=0)
    plan.add(rule)
    plan.attach_to_store(store)
    return rule


def crash_leader_mid_flight(store, engine, records):
    """Submit ``records`` and crash the leader while their fan-out is on
    the wire; returns the finished client process."""

    def crasher():
        yield engine.timeout(2.0)  # well inside the replication window
        store.fail_node(store.group.leader)

    client = engine.spawn(store.write_redo_proc(records))
    engine.run_until_complete([engine.spawn(crasher()), client])
    return client


def acked_on(store, lsn):
    """How many replicas hold ``lsn`` in a durably persisted redo batch."""
    return sum(
        any(r.lsn == lsn for blob in node.durable_redo_blobs
            for r in decode_records(blob))
        for node in store.nodes
    )


def test_leader_failover_elects_live_successor():
    store, now = make_store()
    with recording() as rec:
        store.fail_node(0)
    # No redo yet: every live replica ties at LSN 0, the lowest wins.
    assert (store.group.leader, store.group.epoch) == (1, 1)
    assert store.metrics.counter("storage.leader_changes").value == 1
    [event] = rec.events(channel="election")
    assert event.kind == "store_leader"
    assert dict(event.fields) == {"node": 1, "term": 1}
    # Two of three replicas are a quorum: writes go on.
    commit = store.write_page(now, 1, page(11)).commit_us
    assert store.group.missed[0] == {1}
    assert store.read_page(commit, 1).data == page(11)


def test_store_leadership_tracks_the_elected_node():
    store, now = make_store()
    store.fail_node(0)
    assert store.leader is store.nodes[store.group.leader]
    # Writes compress on, and space is reported from, the successor.
    before = store.nodes[1].logical_used_bytes
    store.write_page(now, 8, page(80))
    assert store.logical_used_bytes == store.nodes[1].logical_used_bytes
    assert store.logical_used_bytes > before


def test_follower_that_missed_the_last_acked_batch_is_not_elected():
    store, now = make_store()
    now = store.write_redo(now, make_records(3, lsn0=1))
    rule = fail_device(store, 1, now)
    now = store.write_redo(now, make_records(2, lsn0=4))  # acked by 0 + 2
    rule.until_us = now
    assert [n.durable_lsn for n in store.nodes] == [5, 3, 5]
    store.fail_node(0)
    assert store.group.leader == 2  # not replica 1, the lowest index
    assert store.leader.durable_lsn == 5


def test_leader_crash_elects_successor_and_commits_resume():
    store, engine = make_engine_stack()
    client = crash_leader_mid_flight(store, engine, make_records(3))
    assert client.error is None and client.value > 0.0
    assert store.group.leader == 1
    assert store.metrics.counter("storage.replication.retries").value >= 1
    assert store.metrics.counter("storage.leader_changes").value == 1
    # The fenced attempt was re-replicated under the new leader.
    assert store.leader.durable_lsn == 3
    assert acked_on(store, 3) >= store.group.quorum


def test_crashed_leader_rejoins_as_repairing_follower():
    store, now = make_store()
    store.fail_node(0)
    now = store.write_redo(now, make_records(2, lsn0=50, page_no=2))
    now = store.write_page(now, 6, page(60)).commit_us
    assert store.group.missed[0] == {2, 6}
    now = store.recover_node(0, now)
    # It rejoins under the successor, which keeps leading.
    assert store.group.leader == 1 and store.group.alive[0]
    assert store.group.missed[0] == set()
    rejoined = store.nodes[0]
    assert rejoined.read_page(now, 6).data == page(60)
    assert rejoined.read_page(now, 2).data == store.read_page(now, 2).data


def test_reads_reroute_around_a_dead_leader():
    store, now = make_store()
    # Replica 1's device fails through one page write: its copy of page
    # 3 goes stale, yet it still ties for the successor.
    rule = fail_device(store, 1, now)
    now = store.write_page(now, 3, page(30)).commit_us
    rule.until_us = now
    store.fail_node(0)
    assert store.group.leader == 1 and store.group.missed[1] == {3}
    assert store.read_page(now, 3).data == page(30)  # served by replica 2
    assert store.read_page(now, 4).data == page(5)  # by the new leader
    now = store.recover_node(0, now)
    assert store.resync_missed(now) >= now
    assert store.group.missed[1] == set()
    assert store.nodes[1].read_page(now, 3).data == page(30)


def test_stale_successor_is_resynced_with_a_page_it_never_held():
    store, now = make_store()
    # Replica 1's device fails through the first write of page 8, so it
    # has no copy and no index entry for it, yet wins the tie.
    rule = fail_device(store, 1, now)
    now = store.write_page(now, 8, page(80)).commit_us
    rule.until_us = now
    store.fail_node(0)
    assert store.group.leader == 1 and store.group.missed[1] == {8}
    assert store.nodes[1].index.get(8) is None
    now = store.scrub(now)
    assert store.group.missed[1] == set()
    resynced = store.metrics.counter(
        "chaos.resynced_pages", node=store.nodes[1].name
    )
    assert resynced.value == 1
    assert store.nodes[1].read_page(now, 8).data == page(80)
    assert store.read_page(now, 8).data == page(80)


def test_double_failover_keeps_acked_commits_durable():
    store, engine = make_engine_stack(seed=29)
    acked = []
    for round_no in range(2):
        lead = store.group.leader
        records = make_records(2, lsn0=100 * (round_no + 1))
        client = crash_leader_mid_flight(store, engine, records)
        assert client.error is None
        assert store.group.leader != lead
        acked.append((client.value, records[-1].lsn))
        store.recover_node(lead, engine.now_us)
    assert [t for t, _ in acked] == sorted(t for t, _ in acked)
    assert store.metrics.counter("storage.leader_changes").value == 2
    # Quorum durability of every acked batch.
    for _, lsn in acked:
        assert acked_on(store, lsn) >= store.group.quorum


def test_with_no_replica_alive_the_first_recovery_elects():
    store, now = make_store()
    store.fail_node(1)
    store.fail_node(2)
    store.fail_node(0)  # the leader: nobody is left to succeed it
    assert store.group.leader == 0 and not any(store.group.alive)
    with pytest.raises(ReplicationError, match="leader replica is down"):
        store.write_page(now, 1, page(11))
    now = store.recover_node(2, now)
    assert (store.group.leader, store.group.epoch) == (2, 1)
    with pytest.raises(ReplicationError, match="no quorum"):
        store.write_page(now, 1, page(11))
    now = store.recover_node(0, now)
    assert store.group.leader == 2
    commit = store.write_page(now, 1, page(11)).commit_us
    assert store.read_page(commit, 1).data == page(11)


@pytest.mark.parametrize("index", [-1, -3, 3])
@pytest.mark.parametrize("method", ["fail_node", "recover_node"])
def test_out_of_range_replica_index_is_refused(method, index):
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=13)
    store.group.elect(2)  # a negative index must not alias the leader
    with pytest.raises(ReproError, match="no replica"):
        getattr(store, method)(index)
    assert store.group.alive == [True, True, True]
    assert store.group.leader == 2
