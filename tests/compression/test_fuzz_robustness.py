"""Decoder robustness: malformed payloads must fail cleanly, never hang
or raise anything but ``CorruptionError`` (the one type storage catches
and turns into a repairable corrupt-copy report).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptionError
from repro.compression.memo import get_codec
from benchmarks.ablation.dictionary import build_dictionary
from repro.workloads.datagen import DATASETS, dataset_pages

_EXPECTED = (CorruptionError,)


@given(st.binary(min_size=0, max_size=512))
@settings(max_examples=300, deadline=None)
def test_lz4_decoder_never_crashes_unexpectedly(payload):
    codec = get_codec("lz4")
    try:
        codec.decompress(payload)
    except _EXPECTED:
        pass


@given(st.binary(min_size=0, max_size=512))
@settings(max_examples=300, deadline=None)
def test_zstd_decoder_never_crashes_unexpectedly(payload):
    codec = get_codec("zstd")
    try:
        codec.decompress(payload)
    except _EXPECTED:
        pass


@given(st.binary(min_size=64, max_size=1024), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_zstd_bitflip_detected_or_consistent(data, flip_seed):
    """Flipping bytes of a valid payload either raises a clean error or
    yields *some* bytes — never an unexpected exception."""
    codec = get_codec("zstd")
    payload = bytearray(codec.compress(data))
    rng = random.Random(flip_seed)
    for _ in range(3):
        payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
    try:
        codec.decompress(bytes(payload))
    except _EXPECTED:
        pass


@given(st.binary(min_size=64, max_size=1024))
@settings(max_examples=100, deadline=None)
def test_truncated_payloads_fail_cleanly(data):
    for codec_name in ("lz4", "zstd"):
        codec = get_codec(codec_name)
        payload = codec.compress(data)
        for cut in (1, len(payload) // 2, len(payload) - 1):
            if cut >= len(payload):
                continue
            try:
                out = codec.decompress(payload[:cut])
                # lz4 has no length framing: a truncation can decode to a
                # prefix; that is acceptable, silent *extension* is not.
                assert len(out) <= len(data)
            except _EXPECTED:
                pass


def _damaged(payload, rng):
    """One seeded mutation of ``payload``: bit flips, a truncation, or a
    few bytes spliced in or out (which also shifts every later field)."""
    blob = bytearray(payload)
    kind = rng.random()
    if kind < 0.6:
        for _ in range(rng.randint(1, 3)):
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
    elif kind < 0.8:
        del blob[rng.randrange(len(blob)) :]
    else:
        at = rng.randrange(len(blob))
        blob[at : at + 1] = rng.randbytes(rng.randint(0, 3))
    return bytes(blob)


@pytest.mark.parametrize("dataset", DATASETS)
def test_damaged_page_payloads_fail_boundedly(dataset):
    """Mutation + truncation sweep over real page payloads: a decode
    either raises ``CorruptionError`` or returns no more than the format
    allows (the zstd container frames its size; an lz4 byte can add at
    most 255 bytes of output)."""
    page = dataset_pages(dataset, 1, seed=5)[0]
    dictionary = build_dictionary(dataset_pages(dataset, 6, seed=1000))
    lz4, zstd = get_codec("lz4"), get_codec("zstd")
    cases = [
        (lz4, lz4.compress(page), {}),
        (zstd, zstd.compress(page), {}),
        (zstd, zstd.compress(page, dictionary=dictionary), {"dictionary": dictionary}),
    ]
    rng = random.Random(f"damage/{dataset}")
    for codec, payload, kwargs in cases:
        assert codec.decompress(payload, **kwargs) == page
        for _ in range(150):
            damaged = _damaged(payload, rng)
            try:
                out = codec.decompress(damaged, **kwargs)
            except CorruptionError:
                continue
            limit = 255 * len(damaged) if codec is lz4 else len(page)
            assert len(out) <= limit


def test_hw_gzip_rejects_garbage_cleanly():
    device = get_codec("hw-gzip")
    for blob in (b"", b"\x00", b"garbage" * 10):
        with pytest.raises(CorruptionError):
            device.decompress(blob)
