"""FTL: mapping, GC, TRIM, and space-accounting invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DeviceError, OutOfSpaceError
from repro.common.units import KiB, MiB
from repro.csd.ftl import FTL
from repro.csd.mapping import L2PEntryCodecV2


def small_ftl(**kwargs):
    # 16 blocks of 64 KiB = 1 MiB physical.
    kwargs.setdefault("block_capacity", 64 * KiB)
    return FTL(1 * MiB, **kwargs)


def test_write_then_read_round_trips_location():
    ftl = small_ftl()
    ftl.write(lba=5, compressed_len=1000)
    block_id, offset, stored = ftl.read(5)
    assert stored == 1000
    assert ftl.nand.blocks[block_id].write_ptr >= offset + stored


def test_read_unmapped_lba_fails():
    with pytest.raises(DeviceError):
        small_ftl().read(0)


def test_rejects_bad_lengths():
    ftl = small_ftl()
    with pytest.raises(DeviceError):
        ftl.write(0, 0)
    with pytest.raises(DeviceError):
        ftl.write(0, 4097)
    with pytest.raises(DeviceError):
        ftl.write(-1, 100)


def test_overwrite_leaves_stale_bytes_and_updates_mapping():
    ftl = small_ftl()
    ftl.write(0, 2000)
    first = ftl.read(0)
    ftl.write(0, 1500)
    second = ftl.read(0)
    assert second != first
    assert ftl.live_bytes == 1500
    assert sum(b.write_ptr for b in ftl.nand.blocks) == 3500  # stale bytes remain until erase


def test_byte_granular_packing():
    """Several compressed payloads pack into one 4 KiB frame-worth of NAND,
    which is the whole point of byte-granular PBAs."""
    ftl = small_ftl()
    for lba in range(8):
        ftl.write(lba, 500)
    assert ftl.live_bytes == 4000
    # All 8 payloads landed in one erase block.
    used_blocks = {ftl.read(lba)[0] for lba in range(8)}
    assert len(used_blocks) == 1


def test_trim_reclaims_space():
    ftl = small_ftl()
    ftl.write(0, 3000)
    ftl.trim(0)
    assert 0 not in ftl._mapping
    assert ftl.live_bytes == 0
    assert ftl.stats.trims == 1
    ftl.trim(0)  # idempotent
    assert ftl.stats.trims == 1


def test_disabled_trim_leaves_ghost_bytes():
    ftl = small_ftl(trim_enabled=False)
    ftl.write(0, 3000)
    ftl.write(1, 1000)
    ftl.trim(0)
    # Device still believes LBA 0 is live.
    assert ftl.live_bytes == 4000
    assert ftl.host_live_bytes == 1000
    assert ftl.untrimmed_ghost_bytes == 3000


def test_overwrite_of_untrimmed_lba_clears_ghost():
    ftl = small_ftl(trim_enabled=False)
    ftl.write(0, 3000)
    ftl.trim(0)
    ftl.write(0, 800)
    assert ftl.untrimmed_ghost_bytes == 0
    assert ftl.host_live_bytes == 800


def test_gc_reclaims_stale_space_under_overwrites():
    ftl = small_ftl()
    rng = random.Random(0)
    # Keep ~40% of physical space live but overwrite constantly: GC must
    # keep up indefinitely.
    for _ in range(3000):
        ftl.write(rng.randrange(100), rng.randint(2000, 4096))
    assert ftl.stats.gc_runs > 0
    assert ftl.stats.write_amplification > 1.0
    assert ftl.live_bytes <= 100 * 4096


def test_gc_preserves_all_mappings():
    ftl = small_ftl()
    rng = random.Random(1)
    expected = {}
    for _ in range(2000):
        lba = rng.randrange(64)
        length = rng.randint(100, 4096)
        ftl.write(lba, length)
        expected[lba] = length
    for lba, length in expected.items():
        assert ftl.read(lba)[2] == length
    assert ftl.live_bytes == sum(expected.values())


def test_out_of_space_when_truly_full():
    ftl = small_ftl()
    with pytest.raises(OutOfSpaceError):
        for lba in range(100000):
            ftl.write(lba, 4096)  # all live, nothing reclaimable


def test_gc_policy_validation():
    with pytest.raises(ValueError):
        small_ftl(gc_policy="oracle")


def test_cost_benefit_policy_reclaims_correctly():
    ftl = small_ftl(gc_policy="cost-benefit")
    rng = random.Random(4)
    expected = {}
    for _ in range(2500):
        lba = rng.randrange(80)
        length = rng.randint(500, 4096)
        ftl.write(lba, length)
        expected[lba] = length
    assert ftl.stats.gc_runs > 0
    for lba, length in expected.items():
        assert ftl.read(lba)[2] == length
    assert ftl.live_bytes == sum(expected.values())


def test_policies_diverge_in_victim_choice():
    """Under hot/cold skew the two policies pick different victims (age
    matters to cost-benefit), yet both preserve every mapping."""
    results = {}
    for policy in ("greedy", "cost-benefit"):
        ftl = FTL(512 * KiB, block_capacity=32 * KiB, gc_policy=policy)
        rng = random.Random(9)
        for i in range(1500):
            # LBA 0-3 are blisteringly hot; 4-40 are cold.
            lba = rng.randrange(4) if rng.random() < 0.8 else rng.randrange(4, 40)
            ftl.write(lba, rng.randint(1000, 4000))
        results[policy] = ftl.stats.gc_relocated_bytes
    assert all(v >= 0 for v in results.values())


def test_v2_codec_rounds_stored_lengths():
    ftl = small_ftl(codec=L2PEntryCodecV2())
    ftl.write(0, 1001)
    assert ftl.read(0)[2] == 1008  # next 16-byte multiple
    assert ftl.live_bytes == 1008


@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.integers(1, 4096)),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=50, deadline=None)
def test_space_accounting_invariant(ops):
    """live_bytes always equals the sum of current mappings' stored sizes,
    regardless of the overwrite/GC history."""
    ftl = FTL(512 * KiB, block_capacity=32 * KiB)
    current = {}
    for lba, length in ops:
        ftl.write(lba, length)
        current[lba] = length
    assert ftl.live_bytes == sum(current.values())
    assert len(ftl._mapping) == len(current)
    # No block ever exceeds its capacity and live <= written everywhere.
    for block in ftl.nand.blocks:
        assert 0 <= block.live_bytes <= block.write_ptr <= block.capacity
