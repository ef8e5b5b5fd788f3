"""Group commit, pipelined replica fan-out, and engine-mode recovery."""

import pytest

from repro.common.errors import ReplicationError
from repro.common.units import MiB
from repro.engine.core import Engine
from repro.storage.node import NodeConfig
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore


def make_records(n, lsn0=1, page_no=7, size=120):
    return [
        RedoRecord(lsn0 + i, page_no, 64 * i, b"x" * size) for i in range(n)
    ]


def make_store(seed=5):
    return PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=seed)


# --------------------------------------------------------------------- #
# Analytic equivalence                                                   #
# --------------------------------------------------------------------- #


def test_single_client_matches_sync_write_redo():
    """One client: the pipeline degenerates to the synchronous
    path's arithmetic (leader persist overlapped with follower RTT +
    persist + ack, commit at quorum)."""
    sync_store = make_store()
    sync_commit = sync_store.write_redo(1000.0, make_records(3))

    eng_store = make_store()
    engine = Engine(start_us=1000.0)
    eng_store.bind_engine(engine)
    eng_commit = engine.run(eng_store.write_redo_proc(make_records(3)))
    assert eng_commit == pytest.approx(sync_commit)


def test_sequential_commits_match_sync_sequence():
    sync_store = make_store()
    now = 500.0
    sync_commits = []
    for i in range(4):
        now = sync_store.write_redo(now, make_records(2, lsn0=10 * i + 1))
        sync_commits.append(now)

    eng_store = make_store()
    engine = Engine(start_us=500.0)
    eng_store.bind_engine(engine)
    eng_commits = []
    for i in range(4):
        commit = engine.run(
            eng_store.write_redo_proc(make_records(2, lsn0=10 * i + 1))
        )
        eng_commits.append(commit)
    assert eng_commits == pytest.approx(sync_commits)


# --------------------------------------------------------------------- #
# Group commit                                                           #
# --------------------------------------------------------------------- #


def test_concurrent_commits_batch():
    """Commits arriving while a flush is in flight join the next batch:
    batch size emerges from load without any window tuning."""
    store = make_store()
    engine = Engine()
    store.bind_engine(engine)
    n = 12
    commits = []

    def client(i):
        commit = yield from store.write_redo_proc(
            make_records(1, lsn0=100 + i)
        )
        commits.append(commit)

    engine.run_until_complete(
        [engine.spawn(client(i)) for i in range(n)]
    )
    assert len(commits) == n
    batches = store.metrics.get("storage.group_commit.batches").value
    batched = store.metrics.get("storage.group_commit.commits").value
    assert batched == n
    # The first commit flushes alone; the other 11 pile up behind that
    # in-flight flush and share batches.
    assert batches < n
    # Every member of one batch shares its commit time; commits are
    # globally non-decreasing in flush order.
    assert sorted(commits) == commits or len(set(commits)) < n


# --------------------------------------------------------------------- #
# Pipelined fan-out under failures                                       #
# --------------------------------------------------------------------- #


def test_commit_survives_one_follower_down():
    store = make_store()
    store.fail_node(2)
    engine = Engine()
    store.bind_engine(engine)
    commit = engine.run(store.write_redo_proc(make_records(2)))
    assert commit > 0.0
    # The dead follower's pages are tracked for resync.
    assert store.group.missed[2]


def test_no_quorum_fails_commit_without_deadlock():
    store = make_store()
    store.fail_node(1)
    store.fail_node(2)
    engine = Engine()
    store.bind_engine(engine)
    with pytest.raises(ReplicationError):
        engine.run(store.write_redo_proc(make_records(2)))


def test_no_quorum_fails_every_member_of_the_batch():
    store = make_store()
    engine = Engine()
    store.bind_engine(engine)
    store.fail_node(1)
    store.fail_node(2)
    failures = []

    def client(i):
        try:
            yield from store.write_redo_proc(make_records(1, lsn0=300 + i))
        except ReplicationError:
            failures.append(i)

    engine.run_until_complete([engine.spawn(client(i)) for i in range(5)])
    assert sorted(failures) == [0, 1, 2, 3, 4]


def test_commit_fires_before_slowest_follower_finishes():
    """Pipelining: with 3 replicas quorum needs only the faster
    follower's ack, so the commit event fires while the slower
    follower's pipeline is still in flight — draining the remaining
    events advances simulated time past the commit."""
    store = make_store()
    engine = Engine()
    store.bind_engine(engine)
    commit = engine.run(store.write_redo_proc(make_records(3)))
    drained = engine.run_until_idle()
    assert drained >= commit
    # Both followers eventually persisted the batch even though only one
    # ack gated the commit.
    for node in store.nodes[1:]:
        assert node.durable_redo_blobs


# --------------------------------------------------------------------- #
# S1: time flows from the clock — recovery can never rewind              #
# --------------------------------------------------------------------- #


def test_recovery_cannot_move_time_backwards_sync():
    store = make_store()
    now = store.write_redo(2_000_000.0, make_records(3))
    assert now > 2_000_000.0
    store.fail_node(2)
    # A defaulted/stale timestamp must not schedule recovery I/O before
    # commits that already happened.
    done = store.recover_node(2)
    assert done >= now
    store.fail_node(2)
    done2 = store.recover_node(2, now_us=1.0)  # stale explicit timestamp
    assert done2 >= done


def test_recovery_cannot_move_time_backwards_engine():
    store = make_store()
    engine = Engine(start_us=3_000_000.0)
    store.bind_engine(engine)
    commit = engine.run(store.write_redo_proc(make_records(2)))
    store.fail_node(1)
    done = store.recover_node(1)
    assert done >= commit
    # The rebuilt node is rebound: its devices keep serving engine procs.
    commit2 = engine.run(store.write_redo_proc(make_records(2, lsn0=50)))
    assert commit2 >= done


def test_recovery_explicit_future_time_respected():
    store = make_store()
    now = store.write_redo(1_000.0, make_records(2))
    store.fail_node(2)
    done = store.recover_node(2, now_us=now + 500_000.0)
    assert done >= now + 500_000.0
