"""The detect-and-repair read path under targeted, deterministic faults."""

import numpy as np
import pytest

from repro.api.config import NodeConfig
from repro.chaos.plan import FaultKind, FaultPlan, FaultRule
from repro.common.errors import ReplicationError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.obs.events import recording
from repro.storage.store import PolarStore


def make_page(fill: int) -> bytes:
    """Incompressible page: bit flips must land in real payload (not
    trailing padding) and torn writes must cut actual compressed bytes,
    otherwise the fault is injected but legitimately undetectable."""
    rng = np.random.default_rng(fill)
    return rng.integers(0, 256, DB_PAGE_SIZE, dtype=np.uint8).tobytes()


def make_store(seed=0):
    return PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=seed)


def counter_total(store, name, **labels):
    total = 0
    for inst in store.metrics.instruments():
        if inst.kind != "counter" or inst.name != name:
            continue
        if any(inst.labels.get(k) != v for k, v in labels.items()):
            continue
        total += int(inst.value)
    return total


def arm(store, kind, max_count=1):
    """Arm a one-shot fault on the leader's data device."""
    plan = FaultPlan(seed=3)
    plan.add(
        FaultRule(kind, scope=f"{store.leader.name}:data", max_count=max_count)
    )
    plan.attach_to_store(store)
    return plan


@pytest.mark.parametrize(
    "kind",
    [
        FaultKind.BIT_FLIP,
        FaultKind.TORN_WRITE,
        FaultKind.DROPPED_WRITE,
        FaultKind.MISDIRECTED_WRITE,
    ],
)
def test_read_detects_repairs_and_attributes(kind):
    store = make_store()
    plan = arm(store, kind)
    now = store.write_page(0.0, 1, make_page(7)).commit_us
    assert sum(plan.injected.values()) == 1
    result = store.read_page(now, 1)
    assert result.data == make_page(7)
    assert counter_total(store, "chaos.detected", kind=kind.value) >= 1
    assert counter_total(store, "chaos.repaired", kind=kind.value) >= 1
    assert counter_total(store, "chaos.unrepairable") == 0
    # The repair rewrote the leader's copy: a direct leader read is clean.
    assert store.leader.read_page(result.done_us, 1).data == make_page(7)


def test_scrub_finds_and_repairs_without_client_reads():
    store = make_store()
    arm(store, FaultKind.BIT_FLIP)
    now = store.write_page(0.0, 1, make_page(9)).commit_us
    now = store.scrub(now)
    assert counter_total(store, "chaos.repaired", kind="bit_flip") == 1
    # A second scrub finds nothing left to fix.
    repaired_before = counter_total(store, "chaos.repaired")
    store.scrub(now)
    assert counter_total(store, "chaos.repaired") == repaired_before


#: scenario -> (chaos.* counter totals, scrub events) of one read of page 1.
#: ``leader_stale`` goes through the peer read, ``follower_stale`` through
#: the hedged read, ``follower_corrupt`` (stale leader, bit-flipped node 1)
#: through peer read into repair.
STALE_REPLICA_READS = {
    "leader_stale": ({}, []),
    "follower_stale": ({"chaos.hedged_reads": 1}, []),
    "follower_corrupt": (
        {"chaos.detected": 1, "chaos.repaired": 1},
        [
            ("detected", {"page": 1, "node": 1, "kind": "bit_flip"}),
            ("repaired",
             {"page": 1, "node": 1, "kind": "bit_flip", "source": 2}),
        ],
    ),
}


@pytest.mark.parametrize("scenario", sorted(STALE_REPLICA_READS))
def test_read_path_never_reads_a_replica_that_missed_the_page(scenario):
    store = make_store()
    if scenario == "follower_corrupt":
        plan = FaultPlan(seed=3)
        plan.add(FaultRule(
            FaultKind.BIT_FLIP, scope=f"{store.nodes[1].name}:data",
            max_count=1,
        ))
        plan.attach_to_store(store)
    if scenario == "follower_stale":
        store.hedge_after_us = 1.0  # every device read is slower: all hedge
    now = store.write_page(0.0, 1, make_page(5)).commit_us
    stale = 1 if scenario == "follower_stale" else 0
    store.group.missed[stale].add(1)

    def refuse(*args, **kwargs):
        raise AssertionError(f"replica {stale} missed page 1 and was read")

    store.nodes[stale].read_page = refuse
    with recording() as rec:
        result = store.read_page(now, 1)
    assert result.data == make_page(5)
    counts, events = STALE_REPLICA_READS[scenario]
    for name in ("chaos.hedged_reads", "chaos.detected", "chaos.repaired",
                 "chaos.unrepairable"):
        assert counter_total(store, name) == counts.get(name, 0), name
    assert [
        (ev.kind, dict(ev.fields)) for ev in rec.events(channel="scrub")
    ] == events


def test_crash_rejoin_resyncs_missed_pages():
    store = make_store()
    now = store.write_page(0.0, 1, make_page(1)).commit_us
    store.fail_node(2)
    now = store.write_page(now, 2, make_page(2)).commit_us
    now = store.recover_node(2, now)
    # The rejoined replica serves both pages directly, byte-exact.
    for page_no in (1, 2):
        assert store.nodes[2].read_page(now, page_no).data == make_page(
            page_no
        )
    assert counter_total(store, "chaos.wal_replays") == 1
    assert counter_total(store, "chaos.resynced_pages") >= 1


def test_quorum_loss_raises_replication_error():
    store = make_store()
    now = store.write_page(0.0, 1, make_page(1)).commit_us
    store.fail_node(1)
    now = store.write_page(now, 2, make_page(2)).commit_us  # 2/3 still ok
    store.fail_node(2)
    with pytest.raises(ReplicationError):
        store.write_page(now, 3, make_page(3))


def test_device_failure_window_degrades_then_recovers():
    store = make_store()
    plan = FaultPlan(seed=3)
    rule = plan.add(
        FaultRule(
            FaultKind.DEVICE_FAIL,
            scope=f"{store.nodes[1].name}:data",
            from_us=0.0,
        )
    )
    plan.attach_to_store(store)
    now = store.write_page(0.0, 1, make_page(4)).commit_us  # quorum of 2
    assert store.read_page(now, 1).data == make_page(4)
    # Close the window; the next scrub resyncs the starved replica.
    rule.until_us = now
    now = store.scrub(now)
    assert store.nodes[1].read_page(now, 1).data == make_page(4)


def test_fail_node_guards():
    from repro.common.errors import ReproError

    store = make_store()
    store.fail_node(1)
    with pytest.raises(ReproError):
        store.fail_node(1)  # double-fail of the same index
    with pytest.raises(ReproError):
        store.recover_node(2)  # node 2 is not failed
