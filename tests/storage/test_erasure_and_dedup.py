"""§6 alternatives: Reed-Solomon erasure coding and page dedup."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.csd.device import PlainSSD
from repro.csd.specs import P5510
from benchmarks.ablation.dedup import DedupIndex, dedup_ratio_of
from benchmarks.ablation.erasure import ECVolume, ReedSolomon, gf_inv, gf_mul, gf_pow
from repro.workloads.datagen import dataset_pages

# --------------------------------------------------------------------- #
# GF(256)                                                                 #
# --------------------------------------------------------------------- #


def test_gf_field_axioms_spot_checks():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = rng.randrange(1, 256), rng.randrange(1, 256), rng.randrange(256)
        assert gf_mul(a, gf_inv(a)) == 1
        assert gf_mul(a, b) == gf_mul(b, a)
        # Distributivity over XOR (field addition).
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)
    assert gf_mul(0, 17) == 0
    assert gf_pow(3, 0) == 1
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


# --------------------------------------------------------------------- #
# Reed-Solomon                                                            #
# --------------------------------------------------------------------- #


def test_encode_is_systematic():
    rs = ReedSolomon(4, 2)
    data = bytes(range(256)) * 16
    shards = rs.encode(data)
    assert len(shards) == 6
    assert b"".join(shards[:4])[: len(data)] == data


def test_decode_from_every_erasure_pattern():
    """RS(4,2) must survive *any* two erasures — exhaustively."""
    rs = ReedSolomon(4, 2)
    data = random.Random(1).randbytes(4096)
    shards = rs.encode(data)
    for gone in itertools.combinations(range(6), 2):
        holey = [
            None if i in gone else shards[i] for i in range(6)
        ]
        assert rs.decode(holey, len(data)) == data


def test_decode_fails_beyond_m_erasures():
    rs = ReedSolomon(4, 2)
    shards = rs.encode(b"x" * 1000)
    holey = [None, None, None] + list(shards[3:])
    with pytest.raises(ReproError):
        rs.decode(holey, 1000)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ReedSolomon(0, 2)
    with pytest.raises(ValueError):
        ReedSolomon(200, 100)
    rs = ReedSolomon(2, 1)
    with pytest.raises(ValueError):
        rs.decode([b"x"], 1)


@given(
    st.binary(min_size=1, max_size=2000),
    st.integers(2, 6),
    st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_rs_round_trip_random(data, k, m):
    rs = ReedSolomon(k, m)
    shards = rs.encode(data)
    rng = random.Random(len(data))
    gone = rng.sample(range(k + m), m)
    holey = [None if i in gone else s for i, s in enumerate(shards)]
    assert rs.decode(holey, len(data)) == data


# --------------------------------------------------------------------- #
# EC volume                                                               #
# --------------------------------------------------------------------- #


def _devices(count):
    spec = dataclasses.replace(
        P5510, logical_capacity=32 * MiB, physical_capacity=32 * MiB,
        jitter_sigma=0.0,
    )
    return [PlainSSD(spec, seed=i) for i in range(count)]


def test_ec_volume_round_trip_and_overhead():
    volume = ECVolume(_devices(6), k=4, m=2)
    page = dataset_pages("finance", 1, seed=0)[0]
    done = volume.write_page(0.0, 1, page)
    data, _ = volume.read_page(done, 1)
    assert data == page
    # 1.5x overhead vs 3x for the replication the paper uses.
    assert volume.storage_overhead == pytest.approx(1.5)


def test_ec_volume_survives_two_failures():
    volume = ECVolume(_devices(6), k=4, m=2)
    pages = {i: dataset_pages("wiki", 1, seed=i)[0] for i in range(4)}
    now = 0.0
    for page_no, page in pages.items():
        now = volume.write_page(now, page_no, page)
    volume.fail_device(0)
    volume.fail_device(4)  # one data + one parity
    for page_no, page in pages.items():
        data, now = volume.read_page(now, page_no)
        assert data == page


def test_ec_volume_fails_beyond_tolerance():
    volume = ECVolume(_devices(6), k=4, m=2)
    volume.write_page(0.0, 1, bytes(DB_PAGE_SIZE))
    for index in (0, 1, 2):
        volume.fail_device(index)
    with pytest.raises(ReproError):
        volume.read_page(1.0, 1)
    volume.recover_device(0)
    data, _ = volume.read_page(2.0, 1)
    assert data == bytes(DB_PAGE_SIZE)


def test_ec_volume_validates_device_count():
    with pytest.raises(ValueError):
        ECVolume(_devices(5), k=4, m=2)


# --------------------------------------------------------------------- #
# Dedup (the paper's negative result)                                     #
# --------------------------------------------------------------------- #


def test_db_pages_barely_dedup():
    """§6: record-level storage makes exact page matches rare — the dedup
    ratio over live database pages is ~1.0."""
    pages = []
    for name in ("finance", "fnb", "wiki"):
        pages.extend(dataset_pages(name, 8, seed=4))
    assert dedup_ratio_of(pages) < 1.05


def test_backup_streams_dedup_heavily():
    base = dataset_pages("finance", 8, seed=4)
    three_full_backups = base * 3
    assert dedup_ratio_of(three_full_backups) == pytest.approx(3.0)


def test_dedup_index_refcounting():
    index = DedupIndex()
    page_a = b"a" * DB_PAGE_SIZE
    page_b = b"b" * DB_PAGE_SIZE
    assert not index.write(1, page_a)
    assert index.write(2, page_a)      # duplicate
    assert not index.write(3, page_b)
    assert index.stats.unique_pages == 2
    assert index.stats.logical_pages == 3
    index.remove(2)
    assert index.stats.unique_pages == 2  # page_a still referenced by 1
    index.remove(1)
    assert index.stats.unique_pages == 1
    # Overwrite changes the fingerprint.
    index.write(3, page_a)
    assert index.stats.unique_pages == 1
    assert index.stats.dedup_ratio == 1.0
