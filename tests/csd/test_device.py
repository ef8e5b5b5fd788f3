"""Device models: data integrity, latency orderings, space accounting."""

import random

import pytest

from repro.common.errors import DeviceError
from repro.common.units import KiB, MiB
from repro.csd.device import PlainSSD, PolarCSD
from repro.csd.specs import (
    OPTANE_P4800X,
    P4510,
    P5510,
    POLARCSD1,
    POLARCSD2,
    DeviceSpec,
)
import dataclasses


def quiet(spec: DeviceSpec) -> DeviceSpec:
    """Spec with jitter disabled for deterministic latency assertions."""
    return dataclasses.replace(spec, jitter_sigma=0.0)


def make_csd(spec=POLARCSD2, physical_capacity=16 * MiB, **kwargs):
    kwargs.setdefault("block_capacity", 1 * MiB)
    spec = dataclasses.replace(quiet(spec), physical_capacity=physical_capacity)
    return PolarCSD(spec, **kwargs)


def _compressible(size, seed=0):
    rng = random.Random(seed)
    words = [b"order", b"customer", b"balance", b"state", b"2026"]
    out = bytearray()
    while len(out) < size:
        out += rng.choice(words) + b","
    return bytes(out[:size])


def test_plain_ssd_round_trip():
    dev = PlainSSD(quiet(P4510))
    data = _compressible(16 * KiB)
    dev.write(0.0, lba=8, data=data)
    completion = dev.read(100.0, lba=8, nbytes=16 * KiB)
    assert completion.data == data
    assert completion.latency_us > 0


def test_plain_ssd_rejects_unaligned_io():
    dev = PlainSSD(quiet(P4510))
    with pytest.raises(DeviceError):
        dev.write(0.0, 0, b"x" * 1000)
    with pytest.raises(DeviceError):
        dev.read(0.0, 0, 1000)


def test_plain_ssd_read_of_unwritten_lba_fails():
    with pytest.raises(DeviceError):
        PlainSSD(quiet(P4510)).read(0.0, 42, 4096)


def test_csd_round_trip_and_compression():
    dev = make_csd()
    data = _compressible(16 * KiB)
    dev.write(0.0, lba=0, data=data)
    completion = dev.read(50.0, lba=0, nbytes=16 * KiB)
    assert completion.data == data
    # Physically the CSD stored far less than 16 KiB.
    assert dev.physical_used_bytes < len(data) / 2
    assert dev.compression_ratio > 2.0
    assert dev.logical_used_bytes == 16 * KiB


def test_csd_incompressible_data_stores_full_size():
    dev = make_csd()
    data = random.Random(3).randbytes(16 * KiB)
    dev.write(0.0, 0, data)
    assert dev.physical_used_bytes >= 15 * KiB
    assert dev.read(1.0, 0, 16 * KiB).data == data


def test_csd_write_faster_than_plain_read_slower():
    """Figure 7's qualitative result on compressible data: the CSD writes
    faster than the plain SSD of the same PCIe generation (fewer NAND bytes,
    write-buffer ack) but reads slower (decompression + indirection)."""
    csd = make_csd(POLARCSD2)
    ssd = PlainSSD(quiet(P5510))
    data = _compressible(16 * KiB)
    csd_write = csd.write(0.0, 0, data).latency_us
    ssd_write = ssd.write(0.0, 0, data).latency_us
    csd_read = csd.read(1000.0, 0, 16 * KiB).latency_us
    ssd_read = ssd.read(1000.0, 0, 16 * KiB).latency_us
    assert csd_write < ssd_write
    assert csd_read > ssd_read


def test_csd_latency_improves_with_compressibility():
    """Figure 7: higher compression ratios mean fewer NAND bytes and lower
    latency on the CSD."""
    incompressible = random.Random(1).randbytes(16 * KiB)
    compressible = _compressible(16 * KiB)
    dev = make_csd()
    hard = dev.write(0.0, 0, incompressible).latency_us
    easy = dev.write(10_000.0, 4, compressible).latency_us
    assert easy < hard
    hard_read = dev.read(20_000.0, 0, 16 * KiB).latency_us
    easy_read = dev.read(30_000.0, 4, 16 * KiB).latency_us
    assert easy_read < hard_read


def test_optane_is_fast_and_stable():
    optane = PlainSSD(quiet(OPTANE_P4800X))
    ssd = PlainSSD(quiet(P4510))
    data = _compressible(16 * KiB)
    assert optane.write(0.0, 0, data).latency_us < ssd.write(0.0, 0, data).latency_us / 2
    assert optane.read(1e3, 0, 16 * KiB).latency_us < ssd.read(1e3, 0, 16 * KiB).latency_us / 4


def test_pcie4_devices_beat_pcie3():
    data = _compressible(16 * KiB)
    gen3 = PlainSSD(quiet(P4510)).read(0.0, 0, 4096) if False else None
    p4510 = PlainSSD(quiet(P4510))
    p5510 = PlainSSD(quiet(P5510))
    p4510.write(0.0, 0, data)
    p5510.write(0.0, 0, data)
    assert (
        p5510.read(1e3, 0, 16 * KiB).latency_us
        < p4510.read(1e3, 0, 16 * KiB).latency_us
    )


def test_queueing_increases_latency_under_depth():
    dev = PlainSSD(quiet(P4510))
    data = _compressible(16 * KiB)
    dev.write(0.0, 0, data)
    # Two reads issued at the same instant: the second queues.
    first = dev.read(0.0, 0, 16 * KiB)
    second = dev.read(0.0, 0, 16 * KiB)
    assert second.done_us > first.done_us
    assert second.latency_us > first.latency_us


def test_csd_trim_releases_physical_space():
    dev = make_csd()
    dev.write(0.0, 0, _compressible(16 * KiB))
    before = dev.physical_used_bytes
    dev.trim(0, 16 * KiB)
    assert dev.physical_used_bytes < before
    assert dev.physical_used_bytes == 0


def test_csd_sustained_overwrites_trigger_gc():
    dev = make_csd(physical_capacity=1 * MiB, block_capacity=128 * KiB)
    rng = random.Random(7)
    data = [_compressible(16 * KiB, seed=s) for s in range(8)]
    now = 0.0
    for i in range(600):
        lba = rng.randrange(48) * 4
        completion = dev.write(now, lba, rng.choice(data))
        now = completion.done_us
    assert dev.ftl.stats.gc_runs > 0
    # Data integrity after heavy GC.
    check = dev.read(now, 0, 16 * KiB)
    assert len(check.data) == 16 * KiB


def test_plain_device_rejects_csd_construction():
    with pytest.raises(DeviceError):
        PolarCSD(quiet(P4510))
