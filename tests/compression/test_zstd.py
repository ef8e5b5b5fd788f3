"""zstd-like codec: round-trips and the entropy-coding property."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptionError
from repro.compression.lz4 import LZ4Codec
from repro.compression.zstd import ZstdCodec

codec = ZstdCodec()
lz4 = LZ4Codec()


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"a",
        b"short",
        b"hello world " * 100,
        b"\x00" * 10000,
        bytes(range(256)) * 16,
    ],
)
def test_round_trip_known_inputs(data):
    assert codec.decompress(codec.compress(data)) == data


@given(st.binary(min_size=0, max_size=4096))
@settings(max_examples=150, deadline=None)
def test_round_trip_random(data):
    assert codec.decompress(codec.compress(data)) == data


@given(st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=48))
@settings(max_examples=75, deadline=None)
def test_round_trip_repeating(seed, unit):
    rng = random.Random(seed)
    data = unit * rng.randint(1, 300)
    assert codec.decompress(codec.compress(data)) == data


def _textlike(size, seed=0):
    rng = random.Random(seed)
    words = [
        b"transaction", b"commit", b"database", b"storage", b"page",
        b"index", b"compression", b"cloud", b"the", b"of", b"and",
    ]
    out = bytearray()
    while len(out) < size:
        out += rng.choice(words) + b" "
    return bytes(out[:size])


def test_beats_lz4_on_text():
    data = _textlike(16 * 1024)
    zstd_size = len(codec.compress(data))
    lz4_size = len(lz4.compress(data))
    assert zstd_size < lz4_size


def test_entropy_coded_output_resists_gzip():
    """The Figure 5c property: gzip squeezes lz4 output much more than
    zstd output, because zstd output is already entropy-coded."""
    data = _textlike(32 * 1024)
    lz4_out = lz4.compress(data)
    zstd_out = codec.compress(data)
    lz4_regain = len(lz4_out) / len(zlib.compress(lz4_out, 5))
    zstd_regain = len(zstd_out) / len(zlib.compress(zstd_out, 5))
    assert lz4_regain > zstd_regain
    assert zstd_regain < 1.25  # nearly incompressible


def test_incompressible_falls_back_to_raw_mode():
    data = random.Random(5).randbytes(8192)
    compressed = codec.compress(data)
    assert len(compressed) <= len(data) + 8
    assert codec.decompress(compressed) == data


def test_fields_past_the_bucket_alphabet_round_trip():
    """The bucket alphabet ends at 65 535: a longer literal run is split
    into match-less tokens and a longer match is capped by the finder
    (both used to raise IndexError)."""
    long_literals = random.Random(6).randbytes(70_000) + bytes(100_000)
    for data in (long_literals, bytes(70 * 1024)):
        compressed = codec.compress(data)
        assert len(compressed) < len(data) // 2
        assert codec.decompress(compressed) == data


def test_decompress_rejects_bad_magic():
    with pytest.raises(CorruptionError):
        codec.decompress(b"\x00\x01\x02")


def test_decompress_rejects_unknown_mode():
    with pytest.raises(CorruptionError):
        codec.decompress(bytes([0x5A, 9, 0]))


def test_decompress_rejects_truncated_raw():
    payload = bytes([0x5A, 0, 100]) + b"only a few bytes"
    with pytest.raises(CorruptionError):
        codec.decompress(payload)


def test_structured_pages_compress_well():
    # Records with repeating schema compress far better than 2:1.
    record = b"%08d|alice@example.com|active|2026-07-04|balance=0001234.56\n"
    data = b"".join(record % i for i in range(250))
    compressed = codec.compress(data)
    assert len(data) / len(compressed) > 3.0
    assert codec.decompress(compressed) == data
