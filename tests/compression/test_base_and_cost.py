"""Codec table, result metadata, cost models, hardware gzip."""

import pytest

from repro.compression.memo import CODECS, get_codec
from repro.compression.cost import LZ4_COST, ZSTD_COST, codec_cost
from repro.compression.gzipdev import HARDWARE_GZIP_LEVEL, HardwareGzip
from repro.common.errors import CorruptionError


def test_registry_knows_builtin_codecs():
    # One table holds every codec an index entry or a device can name.
    assert sorted(CODECS) == ["hw-gzip", "lz4", "zstd"]
    for name in CODECS:
        assert get_codec(name).name == name


def test_registry_returns_shared_instance():
    assert get_codec("lz4") is get_codec("lz4")


def test_registry_unknown_codec():
    with pytest.raises(KeyError):
        get_codec("snappy")


def test_compression_result_ratio():
    result = get_codec("lz4").compress_result(b"aaaa" * 1000)
    assert result.original_size == 4000
    assert result.ratio > 10


def test_cost_models_scale_linearly():
    assert LZ4_COST.decompress_us(32768) > LZ4_COST.decompress_us(16384)
    assert codec_cost("zstd") is ZSTD_COST


def test_zstd_decompression_costs_more_than_lz4():
    """Figure 5a: zstd decompression latency exceeds lz4's at every size."""
    for size in (4096, 8192, 16384, 65536):
        assert ZSTD_COST.decompress_us(size) > LZ4_COST.decompress_us(size)


def test_calibration_matches_paper_threshold_rationale():
    """§3.3.2: the zstd-vs-lz4 decompression gap on a 16 KiB page should be
    commensurate with one 4 KiB I/O (12–14 µs)."""
    gap = ZSTD_COST.decompress_us(16384) - LZ4_COST.decompress_us(16384)
    assert 8.0 < gap < 20.0


def test_unknown_cost_model():
    with pytest.raises(KeyError):
        codec_cost("gzip-9")


def test_hardware_gzip_round_trip():
    device = HardwareGzip()
    data = b"polar store " * 400
    assert device.level == HARDWARE_GZIP_LEVEL
    assert device.decompress(device.compress(data)) == data
    assert device.compressed_size(data) < len(data)


def test_hardware_gzip_rejects_garbage():
    with pytest.raises(CorruptionError):
        HardwareGzip().decompress(b"not deflate data")


def test_hardware_gzip_average_ratio_band():
    """§3.2.2 reports ~2.4 average ratio for gzip level 5 on 4 KiB inputs.
    Our synthetic structured data should land in a sane band around it."""
    record = b"%06d,user%04d,item%05d,qty=%02d,price=%08.2f\n"
    rows = b"".join(
        record % (i, i % 500, i % 9000, i % 10, (i * 13) % 9999 / 100)
        for i in range(1200)
    )
    blocks = [rows[i : i + 4096] for i in range(0, len(rows) - 4095, 4096)]
    device = HardwareGzip()
    ratios = [len(b) / device.compressed_size(b) for b in blocks]
    avg = sum(ratios) / len(ratios)
    assert 1.5 < avg < 6.0
