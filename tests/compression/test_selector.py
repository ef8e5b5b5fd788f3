"""Algorithm 1: adaptive lz4/zstd selection."""

import random

from repro.common.units import LBA_SIZE, align_up
from repro.compression.memo import get_codec
from repro.compression.cost import codec_cost
from repro.compression.selector import (
    DEFAULT_THRESHOLD_BYTES_PER_US,
    AlgorithmSelector,
)


def _textlike(size, seed=0):
    rng = random.Random(seed)
    words = [b"payment", b"order", b"customer", b"balance", b"2026-07-04"]
    out = bytearray()
    while len(out) < size:
        out += rng.choice(words) + b","
    return bytes(out[:size])


def test_high_cpu_always_picks_lz4():
    selector = AlgorithmSelector()
    decision = selector.select(_textlike(16384), cpu_utilization=0.5)
    assert decision.codec == "lz4"
    assert not decision.evaluated
    assert selector.fallbacks == 1


def test_small_update_reuses_last_algorithm():
    selector = AlgorithmSelector()
    decision = selector.select(
        _textlike(16384), update_percent=0.1, last_used="zstd"
    )
    assert decision.codec == "zstd"
    assert not decision.evaluated


def test_initial_write_triggers_evaluation():
    selector = AlgorithmSelector()
    decision = selector.select(_textlike(16384))
    assert decision.evaluated
    assert selector.evaluations == 1


def test_decision_respects_threshold_math():
    selector = AlgorithmSelector()
    page = _textlike(16384, seed=3)
    decision = selector.select(page)
    lz4_sz = align_up(len(get_codec("lz4").compress(page)), LBA_SIZE)
    zstd_sz = align_up(len(get_codec("zstd").compress(page)), LBA_SIZE)
    benefit = lz4_sz - zstd_sz
    overhead = codec_cost("zstd").decompress_us(zstd_sz) - codec_cost(
        "lz4"
    ).decompress_us(lz4_sz)
    expected = "zstd" if benefit / max(overhead, 1e-9) > 300.0 else "lz4"
    assert decision.codec == expected


def test_zero_benefit_stays_lz4():
    # Incompressible page: both codecs produce ~page-size output, so the
    # aligned sizes tie and lz4 must win.
    page = random.Random(9).randbytes(16384)
    decision = AlgorithmSelector().select(page)
    assert decision.codec == "lz4"


def test_huge_benefit_switches_to_zstd():
    # Random symbols of an 8-letter alphabet: no matches for lz4, but
    # zstd's entropy coder saves at least one 4 KiB block, which clears
    # the threshold.
    rng = random.Random(1)
    page = bytes(rng.choice(b"abcdefgh") for _ in range(16384))
    lz4_sz = align_up(len(get_codec("lz4").compress(page)), LBA_SIZE)
    zstd_sz = align_up(len(get_codec("zstd").compress(page)), LBA_SIZE)
    decision = AlgorithmSelector().select(page)
    assert lz4_sz - zstd_sz >= LBA_SIZE
    assert decision.benefit_bytes / decision.overhead_us > (
        DEFAULT_THRESHOLD_BYTES_PER_US
    )
    assert decision.codec == "zstd"


def test_decision_payload_round_trips():
    page = _textlike(16384, seed=5)
    decision = AlgorithmSelector().select(page)
    codec = get_codec(decision.codec)
    assert codec.decompress(decision.output.pack()) == page
