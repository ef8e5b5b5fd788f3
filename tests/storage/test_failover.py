"""Leader failover on the volume: crash, election, rejoin, repair."""

import pytest

from repro.common.errors import RaftError, ReproError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.consensus import RaftGroup, RaftState
from repro.engine import Engine
from repro.storage.node import NodeConfig
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore


def make_records(n, lsn0=1, page_no=2):
    return [
        RedoRecord(lsn0 + i, page_no, 64 * i, b"f" * 80) for i in range(n)
    ]


def make_stack(seed=13):
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=seed)
    now = 0.0
    for p in range(8):
        now = store.write_page(
            now, p, bytes([p + 1]) * DB_PAGE_SIZE
        ).commit_us
    engine = Engine(start_us=now)
    group = RaftGroup(engine, 3, seed=seed, metrics=store.metrics).start()
    store.bind_engine(engine)
    store.attach_consensus(group)
    engine.run_until_idle(limit_us=engine.now_us + 40_000.0)
    assert group.leader_id is not None
    return store, engine, group


def test_leader_failover_requires_consensus():
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=13)
    with pytest.raises(ReproError, match="consensus"):
        store.fail_node(0)


def test_store_leadership_tracks_the_elected_node():
    store, engine, group = make_stack()
    assert store.group.leader == group.leader_id
    assert store.leader is store.nodes[group.leader_id]


def test_leader_crash_elects_successor_and_commits_resume():
    store, engine, group = make_stack()
    old = store.group.leader
    store.fail_node(old)
    # The pipeline's retry deadline (60 ms) dwarfs the 8-16 ms election
    # timeout, so one submission rides through the whole failover.
    commit = engine.run(store.write_redo_proc(make_records(3)))
    assert commit > 0.0
    assert store.group.leader != old
    assert store.group.leader == group.leader_id
    assert store.metrics.counter("raft.retries").value >= 1
    assert store.metrics.counter("storage.leader_changes").value >= 1


def test_crashed_leader_rejoins_as_repairing_follower():
    store, engine, group = make_stack()
    old = store.group.leader
    store.fail_node(old)
    engine.run_until_idle(limit_us=engine.now_us + 40_000.0)
    engine.run(store.write_redo_proc(make_records(2, lsn0=50)))
    store.recover_node(old, engine.now_us)
    node = group.nodes[old]
    assert node.alive
    assert node.state is RaftState.FOLLOWER
    assert node.repairing  # not serving until its log is proven current
    engine.run_until_idle(limit_us=engine.now_us + 30_000.0)
    assert not node.repairing
    assert node.commit_index >= len(group.committed) - 1
    assert group.tracker.violations == []


def test_reads_reroute_around_a_dead_leader():
    store, engine, group = make_stack()
    old = store.group.leader
    store.fail_node(old)
    result = store.read_page(engine.now_us, 3)
    assert result.data == bytes([4]) * DB_PAGE_SIZE
    engine.run_until_idle(limit_us=engine.now_us + 40_000.0)
    store.recover_node(old, engine.now_us)
    end = store.resync_missed(engine.now_us)
    assert end >= engine.now_us


def test_double_failover_keeps_acked_commits_durable():
    store, engine, group = make_stack(seed=29)
    acked = []
    for round_no in range(2):
        lead = store.group.leader
        store.fail_node(lead)
        commit = engine.run(
            store.write_redo_proc(make_records(2, lsn0=100 * (round_no + 1)))
        )
        acked.append(commit)
        engine.run_until_idle(limit_us=engine.now_us + 30_000.0)
        store.recover_node(lead, engine.now_us)
        engine.run_until_idle(limit_us=engine.now_us + 30_000.0)
    assert acked == sorted(acked)
    assert group.tracker.one_leader_per_term() == []
    assert group.tracker.fenced_commit_nothing() == []
    # Quorum durability of every acked batch.
    holders = sum(1 for n in store.nodes if n.durable_redo_blobs)
    assert holders >= store.group.quorum
