"""The consolidation-policy family (single/leveled/tiered) the WA
benchmark drives, and the node's own choice of log store."""

import dataclasses
import random

import pytest

from repro.common.units import LBA_SIZE, MiB
from repro.csd.device import PolarCSD
from repro.csd.specs import POLARCSD2
from repro.storage.allocator import SpaceManager
from repro.storage.consolidation import (
    POLICIES,
    ConsolidationConfig,
    LeveledPolicy,
    SingleLevelLog,
    TieredPolicy,
    make_policy,
)
from repro.storage.node import NodeConfig
from repro.storage.perpage_log import (
    LOG_BLOCK_CAPACITY,
    PerPageLogStore,
    ScatteredLogStore,
)
from repro.storage.redo import RedoRecord
from repro.storage.store import build_node


def make_device(seed=0):
    spec = dataclasses.replace(
        POLARCSD2,
        logical_capacity=64 * MiB,
        physical_capacity=32 * MiB,
        jitter_sigma=0.0,
    )
    return PolarCSD(spec, seed=seed, block_capacity=1 * MiB)


def build(policy_name, **overrides):
    device = make_device()
    allocator = SpaceManager(64 * MiB)
    config = ConsolidationConfig(**overrides)
    policy = make_policy(policy_name, device, allocator, config)
    return policy, device, allocator


def records_for(page, n, lsn0=1, size=100, seed=3):
    rng = random.Random(seed * 7919 + page)
    return [
        RedoRecord(lsn0 + i, page, (i * 128) % 15000, rng.randbytes(size))
        for i in range(n)
    ]


# --------------------------------------------------------------------- #
# Selection                                                              #
# --------------------------------------------------------------------- #


def test_make_policy_selects_by_name():
    for name, cls in (
        ("single-level", SingleLevelLog),
        ("leveled", LeveledPolicy),
        ("tiered", TieredPolicy),
    ):
        policy, _, _ = build(name)
        assert isinstance(policy, cls)
        assert policy.name == name
    assert set(POLICIES) == {"single-level", "leveled", "tiered"}


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown consolidation policy"):
        build("btree")


def test_single_level_respects_per_page_switch():
    """A storage node runs Opt#3 only; ``opt_per_page_log`` picks the
    per-page log or the scattered baseline, with no policy around it."""
    per_page = build_node(
        "n", NodeConfig(opt_per_page_log=True), volume_bytes=64 * MiB
    )
    assert type(per_page.log_store) is PerPageLogStore
    assert per_page.log_store.page_capacity_bytes == LOG_BLOCK_CAPACITY
    scattered = build_node(
        "n", NodeConfig(opt_per_page_log=False), volume_bytes=64 * MiB
    )
    assert type(scattered.log_store) is ScatteredLogStore
    assert scattered.log_store.page_capacity_bytes is None


def test_config_validation():
    with pytest.raises(ValueError, match="l0_limit"):
        ConsolidationConfig(l0_limit=0).validate()


# --------------------------------------------------------------------- #
# Single-level: the per-page log plus counters                           #
# --------------------------------------------------------------------- #


def test_single_level_matches_raw_store_byte_for_byte():
    """The benchmark's arm adds counters only: same bytes, same times,
    same layout as the store the node runs."""
    policy, _, _ = build("single-level")
    raw = PerPageLogStore(make_device(), SpaceManager(64 * MiB))
    now_p, now_r = 0.0, 0.0
    for page in (3, 7):
        recs = records_for(page, 5)
        now_p = policy.evict(now_p, recs)
        now_r = raw.evict(now_r, recs)
    assert now_p == now_r
    for page in (3, 7, 99):
        got_p = policy.fetch(now_p, page)
        got_r = raw.fetch(now_r, page)
        assert got_p.records == got_r.records
        assert got_p.reads_issued == got_r.reads_issued
        assert got_p.done_us - now_p == got_r.done_us - now_r
        assert policy.blocks_for(page) == raw.blocks_for(page)
        assert policy.stored_bytes_for(page) == raw.stored_bytes_for(page)
    assert policy.allocated_blocks == raw.allocated_blocks
    assert policy.drain(now_p) == now_p
    assert (policy.fetches, policy.fetch_reads) == (3, 2)


# --------------------------------------------------------------------- #
# Run-based policies: round-trip + compaction mechanics                  #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", ["leveled", "tiered"])
def test_run_policy_round_trips_records(name):
    policy, _, _ = build(name)
    now = 0.0
    expect = {}
    for rnd in range(3):
        batch = []
        for page in range(6):
            recs = records_for(page, 2, lsn0=1 + rnd * 10 + page * 100)
            expect.setdefault(page, []).extend(recs)
            batch.extend(recs)
        now = policy.evict(now, batch)
    for page in range(6):
        got = policy.fetch(now, page)
        assert got.records == sorted(expect[page])
        assert got.reads_issued >= 1
        now = got.done_us
    assert sorted(policy.pages_with_logs()) == list(range(6))


def test_leveled_l0_merge_reduces_read_fanout():
    policy, _, _ = build("leveled", l0_limit=2)
    now = 0.0
    for rnd in range(4):
        now = policy.evict(
            now, [r for p in range(8) for r in records_for(p, 1, lsn0=1 + rnd)]
        )
    assert len(policy._groups[0]) > policy.config.l0_limit
    before = policy.fetch(now, 0)
    tasks = policy.plan_compactions()
    assert tasks and tasks[0].reason == "l0-runs"
    now = policy.drain(before.done_us)
    assert len(policy._groups[0]) == 0
    after = policy.fetch(now, 0)
    assert after.reads_issued < before.reads_issued
    assert after.records == before.records
    assert policy.compactions >= 1


def test_leveled_cascade_on_level_bytes():
    policy, _, _ = build(
        "leveled", l0_limit=1, base_level_bytes=8 * 1024, level_ratio=4
    )
    now = 0.0
    for rnd in range(12):
        now = policy.evict(
            now,
            [r for p in range(4) for r in records_for(p, 2, lsn0=1 + rnd * 50,
                                                      size=400)],
        )
        now = policy.drain(now)
    # Data cascaded past L1: its live bytes respect the geometric budget.
    l1_bytes = sum(run.live_bytes for run in policy._groups[1])
    assert l1_bytes <= 8 * 1024
    assert any(policy._groups[2:])


def test_tiered_fanout_merges_into_next_tier():
    policy, _, _ = build("tiered", tier_fanout=3)
    now = 0.0
    for rnd in range(3):
        now = policy.evict(now, records_for(5, 2, lsn0=1 + rnd * 10))
    tasks = policy.plan_compactions()
    assert tasks and tasks[0].reason == "tier-fanout"
    now = policy.drain(now)
    assert len(policy._groups[0]) == 0
    assert len(policy._groups[1]) == 1
    got = policy.fetch(now, 5)
    assert len(got.records) == 6


def test_discard_drops_records_and_frees_dead_runs():
    policy, device, allocator = build("leveled")
    now = policy.evict(0.0, records_for(1, 3) + records_for(2, 3))
    assert policy.allocated_blocks > 0
    policy.discard(1)
    assert policy.blocks_for(1) == 0
    assert policy.stored_bytes_for(1) == 0
    got = policy.fetch(now, 1)
    assert got.records == []
    # Page 2 survives in the same run.
    assert len(policy.fetch(now, 2).records) == 3
    policy.discard(2)
    # Every page dead -> the run's blocks are freed and trimmed.
    assert policy.allocated_blocks == 0


def test_compaction_drops_discarded_pages_from_rewrites():
    policy, _, _ = build("leveled", l0_limit=1)
    now = 0.0
    for rnd in range(3):
        now = policy.evict(
            now, records_for(1, 1, lsn0=1 + rnd) + records_for(2, 1, lsn0=50 + rnd)
        )
    policy.discard(1)
    before = policy.compaction_write_bytes
    now = policy.drain(now)
    assert policy.compaction_write_bytes > before
    assert policy.fetch(now, 1).records == []
    assert len(policy.fetch(now, 2).records) == 3
    # The rewrite carried only page 2's live bytes.
    assert policy.stored_bytes_for(1) == 0


def test_large_records_get_multi_block_chunks():
    policy, _, _ = build("leveled")
    big = RedoRecord(1, 4, 0, b"x" * (LOG_BLOCK_CAPACITY + 500))
    small = records_for(4, 1, lsn0=2)
    now = policy.evict(0.0, [big] + small)
    got = policy.fetch(now, 4)
    assert sorted(got.records) == sorted([big] + small)
    assert policy.allocated_blocks >= 3  # 2-block chunk + 1 small block
    now = policy.drain(got.done_us)
    got = policy.fetch(now, 4)
    assert sorted(got.records) == sorted([big] + small)


def test_evict_is_append_only_for_run_policies():
    """The WA story: re-evicting a page never rewrites earlier runs."""
    policy, device, _ = build("leveled", l0_limit=100)
    now = policy.evict(0.0, records_for(1, 1, size=600, seed=3))
    first = device.ftl.stats.nand_written_bytes
    now = policy.evict(now, records_for(1, 1, lsn0=10, size=600, seed=11))
    second = device.ftl.stats.nand_written_bytes - first
    # Single-level would rewrite ~2x the bytes on the second eviction.
    assert second <= first * 1.5

    single, sdevice, _ = build("single-level")
    now = single.evict(0.0, records_for(1, 1, size=600, seed=3))
    first = sdevice.ftl.stats.nand_written_bytes
    now = single.evict(now, records_for(1, 1, lsn0=10, size=600, seed=11))
    second = sdevice.ftl.stats.nand_written_bytes - first
    assert second > first  # the merged rewrite grows with history
