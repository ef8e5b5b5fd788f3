"""WAL, page index, and replication-group semantics."""

import pytest

from repro.common.errors import ReplicationError, WALError
from repro.storage.index import CompressionInfo, IndexEntry, PageIndex
from repro.storage.replication import NetworkModel, ReplicationGroup
from repro.storage.wal import (
    WALRecordType,
    WriteAheadLog,
    decode_alloc,
    decode_index_put,
    decode_index_remove,
)

from .wal_faults import corrupt_record

# --------------------------------------------------------------------- #
# WAL                                                                    #
# --------------------------------------------------------------------- #


def test_wal_append_and_replay_round_trip():
    wal = WriteAheadLog()
    wal.append_index_put(
        7, 100, 2, 5000, status=1, algorithm="lz4", applied_lsn=42,
    )
    wal.append_alloc(100, 2)
    wal.append_index_remove(7)
    wal.append_free(100, 2)
    records = list(wal.replay())
    assert [r.type for r in records] == [
        WALRecordType.INDEX_PUT,
        WALRecordType.ALLOC,
        WALRecordType.INDEX_REMOVE,
        WALRecordType.FREE,
    ]
    put = decode_index_put(records[0].payload)
    assert (put.page_no, put.lba, put.n_blocks, put.payload_len) == (
        7, 100, 2, 5000,
    )
    assert put.algorithm == "lz4"
    assert put.applied_lsn == 42
    assert decode_alloc(records[1].payload) == (100, 2)
    assert decode_index_remove(records[2].payload) == 7
    assert [r.lsn for r in records] == [1, 2, 3, 4]


def test_wal_segment_record_round_trip():
    from repro.storage.wal import decode_segment

    wal = WriteAheadLog()
    wal.append_segment(9, 123456, [(100, 32), (200, 8)], [5, 6, 7])
    record = next(iter(wal.replay()))
    assert record.type == WALRecordType.SEGMENT
    segment = decode_segment(record.payload)
    assert segment.segment_id == 9
    assert segment.compressed_len == 123456
    assert segment.pieces == ((100, 32), (200, 8))
    assert segment.page_nos == (5, 6, 7)


def test_wal_crc_detects_corruption():
    wal = WriteAheadLog()
    wal.append_alloc(1, 1)
    corrupt_record(wal, 0)
    with pytest.raises(WALError):
        list(wal.replay())


def test_wal_tracks_bytes():
    wal = WriteAheadLog()
    wal.append_alloc(1, 1)
    assert wal.appended_bytes > 0


# --------------------------------------------------------------------- #
# Page index                                                             #
# --------------------------------------------------------------------- #


def entry(**kwargs):
    defaults = dict(
        status=CompressionInfo.NORMAL,
        algorithm="zstd",
        lba=0,
        n_blocks=2,
        payload_len=5000,
    )
    defaults.update(kwargs)
    return IndexEntry(**defaults)


def test_index_put_get_remove():
    index = PageIndex()
    assert index.get(1) is None
    old = index.put(1, entry())
    assert old is None
    assert index.get(1).algorithm == "zstd"
    replaced = index.put(1, entry(lba=10))
    assert replaced.lba == 0
    assert index.remove(1).lba == 10
    assert 1 not in index


def test_index_entry_validation():
    with pytest.raises(ValueError):
        entry(n_blocks=0)
    with pytest.raises(ValueError):
        entry(payload_len=0)
    with pytest.raises(ValueError):
        entry(status=CompressionInfo.NORMAL, algorithm=None)
    with pytest.raises(ValueError):
        entry(status=CompressionInfo.HEAVY, segment_id=None)


def test_index_heavy_entry_carries_segment_info():
    heavy = entry(
        status=CompressionInfo.HEAVY,
        algorithm=None,
        segment_id=3,
        page_in_segment=5,
    )
    index = PageIndex()
    index.put(9, heavy)
    assert index.get(9).segment_id == 3


def test_index_logical_bytes():
    index = PageIndex()
    index.put(1, entry())
    index.put(2, entry())
    assert index.logical_bytes == 2 * 16 * 1024


# --------------------------------------------------------------------- #
# Replication                                                            #
# --------------------------------------------------------------------- #


NET = NetworkModel(one_way_us=5.0, per_kib_us=0.0)


def replicate(group, payload, leader_lat=10.0, follower_lats=(12.0, 20.0),
              net=NET, start=0.0):
    """One quorum write against ``group`` with injected persist latencies
    — the calls every user of the group makes, in the order
    ``PolarStore._replicate`` makes them.  Returns ``(commit, acks)``."""
    group.require_quorum()
    send, ack = net.rpc_us(len(payload)), net.rpc_us(64)
    acks = [
        start + send + lat + ack
        for i, lat in zip(group.followers(), follower_lats)
        if group.alive[i]
    ]
    return group.commit_time(start + leader_lat, acks), acks


def test_commit_waits_for_majority_not_all():
    group = ReplicationGroup(3)
    commit, acks = replicate(group, b"x" * 100)
    # Leader done at 10; follower acks at 5+12+5=22 and 5+20+5=30.
    # Quorum = 2 (leader + fastest follower) => commit at 22, not 30.
    assert group.quorum == 2 and group.acks_needed == 1
    assert commit == 22.0
    assert sorted(acks) == [22.0, 30.0]


def test_commit_bounded_by_leader_when_leader_slow():
    commit, _ = replicate(ReplicationGroup(3), b"x", leader_lat=50.0)
    assert commit == 50.0


def test_one_follower_down_still_commits():
    group = ReplicationGroup(3)
    group.alive[1] = False
    commit, _ = replicate(group, b"x")
    assert commit == 30.0  # must wait for the slow follower


def test_no_quorum_raises():
    group = ReplicationGroup(3)
    group.alive[1] = group.alive[2] = False
    with pytest.raises(ReplicationError):
        replicate(group, b"x")
    # Too few acknowledgements is refused by the commit rule itself too.
    with pytest.raises(ReplicationError):
        ReplicationGroup(3).commit_time(10.0, [])


def test_dead_leader_raises():
    group = ReplicationGroup(3)
    group.alive[group.leader] = False
    with pytest.raises(ReplicationError):
        replicate(group, b"x")


def test_payload_size_slows_replication():
    net = NetworkModel(one_way_us=5.0, per_kib_us=1.0)
    small, _ = replicate(ReplicationGroup(3), b"x" * 1024, net=net)
    large, _ = replicate(ReplicationGroup(3), b"x" * 64 * 1024, net=net)
    assert large > small


def test_group_requires_followers():
    """A group needs at least one replica; a group of exactly one is
    its own majority and commits when the leader persists."""
    with pytest.raises(ReplicationError):
        ReplicationGroup(0)
    solo = ReplicationGroup(1)
    assert solo.followers() == [] and solo.acks_needed == 0
    assert solo.commit_time(10.0, []) == 10.0


def test_election_moves_leadership_and_opens_an_epoch():
    group = ReplicationGroup(3)
    assert (group.leader, group.epoch, group.followers()) == (0, 0, [1, 2])
    group.elect(2)
    assert (group.leader, group.epoch, group.followers()) == (2, 1, [0, 1])
    group.missed[0].add(7)
    assert group.current(1, 7) and not group.current(0, 7)
