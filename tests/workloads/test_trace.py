"""Block-trace generation and replay."""

import dataclasses

import pytest

from repro.common.units import KiB, MiB
from repro.csd.device import PlainSSD, PolarCSD
from repro.csd.specs import P5510, POLARCSD2
from examples.block_trace import (
    TraceRecord,
    generate_trace,
    prefill,
    replay_trace,
)


def make_ssd():
    spec = dataclasses.replace(
        P5510, logical_capacity=256 * MiB, physical_capacity=256 * MiB,
        jitter_sigma=0.0,
    )
    return PlainSSD(spec)


def make_csd():
    spec = dataclasses.replace(
        POLARCSD2, logical_capacity=256 * MiB, physical_capacity=64 * MiB,
        jitter_sigma=0.0,
    )
    return PolarCSD(spec, block_capacity=1 * MiB)


def test_record_validation():
    with pytest.raises(ValueError):
        TraceRecord(0.0, "erase", 0, 4096)
    with pytest.raises(ValueError):
        TraceRecord(0.0, "read", 0, 1000)


def test_generate_trace_shape():
    trace = generate_trace(n_ios=500, read_fraction=0.6, seed=3)
    assert len(trace) == 500
    reads = sum(1 for r in trace if r.op == "read")
    assert 0.5 < reads / 500 < 0.7
    issues = [r.issue_us for r in trace]
    assert issues == sorted(issues)  # open-loop timestamps ascend
    assert generate_trace(n_ios=10, seed=3)[:10] == trace[:10]  # deterministic


def test_generate_trace_validates():
    with pytest.raises(ValueError):
        generate_trace(read_fraction=1.5)


def test_replay_skips_unwritten_reads():
    trace = [TraceRecord(0.0, "read", 0, 16 * KiB)]
    report = replay_trace(make_ssd(), trace)
    assert report.skipped_reads == 1
    assert report.total_ios == 0


def test_prefill_then_replay_has_no_skips():
    trace = generate_trace(n_ios=300, read_fraction=0.8, lba_space=512, seed=5)
    device = make_ssd()
    fill_done = prefill(device, trace)
    report = replay_trace(device, trace, assume_prefilled=True,
                          time_offset_us=fill_done)
    assert report.skipped_reads == 0
    assert report.reads.count > 0
    assert report.writes.count > 0


def test_csd_vs_ssd_trace_orderings():
    """Replaying the same trace: the CSD writes faster but reads slower
    than the plain SSD of the same generation (Figure 7's shape, via a
    trace instead of fixed-ratio sweeps)."""
    # Wide inter-arrival gaps keep queues empty, exposing pure service
    # latency (otherwise the SSD's slower writes delay its reads and
    # mask the difference).
    trace = generate_trace(n_ios=400, read_fraction=0.5, lba_space=512,
                           seed=7, mean_interarrival_us=5000.0)
    reports = {}
    for name, factory in (("ssd", make_ssd), ("csd", make_csd)):
        device = factory()
        fill_done = prefill(device, trace, compressibility=2.5)
        reports[name] = replay_trace(
            device, trace, compressibility=2.5, assume_prefilled=True,
            time_offset_us=fill_done,
        )
    assert reports["csd"].writes.mean_us < reports["ssd"].writes.mean_us
    assert reports["csd"].reads.mean_us > reports["ssd"].reads.mean_us


def test_skewed_trace_concentrates_accesses():
    trace = generate_trace(n_ios=2000, zipf_s=1.2, lba_space=1000, seed=9)
    lbas = [r.lba for r in trace]
    top = max(set(lbas), key=lbas.count)
    assert lbas.count(top) > len(lbas) * 0.02
