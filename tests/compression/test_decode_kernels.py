"""The decode kernels: equal to the naive decoders on everything a token
stream can say, and a bounded ``CorruptionError`` on everything else.

The differentials generate *token streams* and entropy-code them
directly, so they reach what the match finders never emit: every
overlap distance from 1 to the match length, 65 535-byte matches,
literal runs past the bucket alphabet, dictionary prefixes of any size.
Example counts come from the Hypothesis profile (``tests/conftest.py``).
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptionError
from repro.compression import zstd as zstd_module
from repro.compression.lz4 import LZ4Codec, _extended
from repro.compression.zstd import (
    ZstdCodec,
    _read_varint,
    _write_varint,
    encode_tokens,
)
from repro.workloads.datagen import dataset_pages
from tests.compression.reference_decoders import lz4_decompress, zstd_decompress

lz4, zstd = LZ4Codec(), ZstdCodec()


# ---------------------------------------------------------------------------
# generated token streams
# ---------------------------------------------------------------------------


@st.composite
def _token_streams(draw, min_match, max_match, max_prefix):
    """``(buf, tokens, start)``: a buffer, the tokens that produce
    ``buf[start:]`` and the length of the dictionary prefix before it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.sampled_from([b"a", b"ab", bytes(range(256))]))
    buf = bytearray(rng.choices(alphabet, k=draw(st.integers(0, max_prefix))))
    start = len(buf)
    small = st.one_of(st.integers(0, 20), st.sampled_from([14, 15, 16, 270]))
    sizes = draw(st.lists(st.tuples(small, small, st.booleans()), max_size=8))
    sizes = [list(size) for size in sizes]
    # At most one field past 64 KiB per stream (the naive decoders take
    # a bit and a byte at a time): a literal run or a match.
    field, big = draw(
        st.sampled_from([(0, 0), (0, 4096), (0, 70_000), (1, 65535), (1, 70_000)])
    )
    if sizes and big:
        sizes[draw(st.integers(0, len(sizes) - 1))][field] = big
    tokens = []
    for lit_len, match_len, near in sizes:
        if not buf:
            lit_len = max(lit_len, 1)  # a match needs something behind it
        lit_start = len(buf)
        # 70 000 eight-bit codes cost the bit-at-a-time reference 0.2 s.
        letters = alphabet[:2] if lit_len > 4096 else alphabet
        buf += bytes(rng.choices(letters, k=lit_len))
        match_len = min(max(match_len, min_match), max_match)
        # Overlapping (distance < length) as often as not.
        reach = min(len(buf), match_len if near else 65535)
        distance = rng.randint(1, reach)
        for _ in range(match_len):
            buf.append(buf[-distance])
        tokens.append((lit_start, lit_len, match_len, distance))
    tail = draw(st.integers(0, 20))
    tokens.append((len(buf), tail, 0, 0))
    buf += bytes(rng.choices(alphabet, k=tail))
    return bytes(buf), tokens, start


def _lz4_block(buf, tokens):
    """The LZ4 block that says ``tokens`` (any tokens, not only legal
    end-of-block ones: the decoder does not depend on those rules)."""
    out = bytearray()
    for lit_start, lit_len, match_len, distance in tokens:
        code = match_len - 4 if match_len else 0
        out.append(min(lit_len, 15) << 4 | min(code, 15))
        if lit_len >= 15:
            out += _extended(lit_len - 15)
        out += buf[lit_start : lit_start + lit_len]
        if match_len:
            out += distance.to_bytes(2, "little")
            if code >= 15:
                out += _extended(code - 15)
    return bytes(out)


@given(_token_streams(min_match=1, max_match=65535, max_prefix=300))
@settings(deadline=None)
def test_zstd_decoder_matches_the_naive_one(case):
    buf, tokens, start = case
    payload = bytes(encode_tokens(buf, tokens, start))
    prefix = buf[:start]
    assert zstd.decompress(payload, dictionary=prefix) == buf[start:]
    assert zstd_decompress(payload, prefix) == buf[start:]


@given(_token_streams(min_match=4, max_match=70_000, max_prefix=0))
@settings(deadline=None)
def test_lz4_decoder_matches_the_naive_one(case):
    buf, tokens, _ = case
    payload = _lz4_block(buf, tokens)
    assert lz4.decompress(payload) == buf
    assert lz4_decompress(payload) == buf


@pytest.mark.parametrize("size", [0, 1, 4, 5, 63, 64, 65, 300])
def test_small_inputs_decode_like_the_naive_decoders(size):
    # Below 64 bytes the zstd container is raw mode; lz4 is literal-only
    # below 13.
    data = (b"abcabcabd" * 40)[:size]
    payload = zstd.compress(data)
    assert zstd.decompress(payload) == zstd_decompress(payload) == data
    payload = lz4.compress(data)
    assert lz4.decompress(payload) == lz4_decompress(payload) == data


# ---------------------------------------------------------------------------
# hostile payloads
# ---------------------------------------------------------------------------

PAGE = dataset_pages("fnb", 1, seed=1)[0]
DICTIONARY = dataset_pages("fnb", 1, seed=2)[0][:4096]


def _with_header(payload, **changes):
    """``payload`` with header varints replaced by name."""
    fields, pos = {}, 2
    for name in ("original_size", "n_tokens", "n_literals"):
        fields[name], pos = _read_varint(payload, pos)
    fields.update(changes)
    out = bytearray(payload[:2])
    for value in fields.values():
        _write_varint(out, value)
    return bytes(out) + payload[pos:]


def _first_table(payload):
    """Offset of the literal table's first (symbol, length) pair."""
    pos = 2
    for _ in range(4):  # original_size, n_tokens, n_literals, table size
        _, pos = _read_varint(payload, pos)
    return pos


@pytest.fixture(params=["plain", "dictionary"])
def page_payload(request):
    kwargs = {"dictionary": DICTIONARY} if request.param == "dictionary" else {}
    payload = zstd.compress(PAGE, **kwargs)
    assert zstd.decompress(payload, **kwargs) == PAGE
    return payload, kwargs


def test_oversized_literal_count_is_refused_before_decoding(page_payload, monkeypatch):
    """Two extra bytes used to buy 11 s, 462 MB and then the right page:
    the literal decoder zero-padded past the end of its stream for ever."""
    payload, kwargs = page_payload
    hostile = _with_header(payload, n_literals=50_000_000)
    assert len(hostile) == len(payload) + 2

    def no_decoding(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(zstd_module, "TableDecoder", no_decoding)
    with pytest.raises(CorruptionError):
        zstd.decompress(hostile, **kwargs)


def test_counts_a_stream_cannot_hold_are_refused(page_payload):
    payload, kwargs = page_payload
    for changes in (
        # Passes the header check; no stream has 50 M bits.
        {"original_size": 50_000_000, "n_literals": 50_000_000},
        {"n_tokens": 50_000_000},
        {"n_tokens": 1 << 70},
        {"n_literals": len(PAGE)},
        {"n_literals": 0},
        {"n_tokens": 0},
    ):
        with pytest.raises(CorruptionError):
            zstd.decompress(_with_header(payload, **changes), **kwargs)


def test_hostile_original_size_sizes_no_allocation(page_payload):
    payload, kwargs = page_payload
    tracemalloc.start()
    try:
        for size in (len(PAGE) + 1, 1 << 40, 1 << 70):
            with pytest.raises(CorruptionError):
                zstd.decompress(_with_header(payload, original_size=size), **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_impossible_code_tables_are_refused(page_payload):
    payload, kwargs = page_payload
    at = _first_table(payload)
    over_limit = bytearray(payload)
    over_limit[at + 1] = 13  # was a negative shift: ValueError
    oversubscribed = bytearray(payload)
    oversubscribed[at + 1] = oversubscribed[at + 3] = oversubscribed[at + 5] = 1
    for hostile in (over_limit, oversubscribed):
        with pytest.raises(CorruptionError):
            zstd.decompress(bytes(hostile), **kwargs)


def test_truncated_extra_bits_are_refused(page_payload):
    payload, kwargs = page_payload
    for cut in (1, 2, 64):
        with pytest.raises(CorruptionError):
            zstd.decompress(payload[:-cut], **kwargs)


@pytest.mark.parametrize("start", [0, 100])
def test_matches_that_point_nowhere_are_refused(start):
    buf = bytes(range(200)) + b"z" * 100
    prefix = buf[:start]
    # Distance 0 was an index past the buffer: IndexError.
    zero = [(start, 10, 5, 0), (start + 15, 300 - start - 15, 0, 0)]
    before_start = [(start, 10, 5, start + 11), (start + 15, 300 - start - 15, 0, 0)]
    for tokens in (zero, before_start):
        with pytest.raises(CorruptionError):
            zstd.decompress(bytes(encode_tokens(buf, tokens, start)), dictionary=prefix)
    in_reach = [(start, 10, 5, start + 10), (start + 15, 300 - start - 15, 0, 0)]
    payload = bytes(encode_tokens(buf, in_reach, start))
    expected = zstd_decompress(payload, prefix)
    assert zstd.decompress(payload, dictionary=prefix) == expected


def test_literal_runs_must_add_up_to_the_literal_stream():
    buf = bytes(range(256)) * 2
    tokens = [(0, 300, 12, 256), (312, 200, 0, 0)]
    payload = bytes(encode_tokens(buf, tokens))
    assert zstd.decompress(payload) == buf
    # One literal fewer in the stream than the runs consume (and the
    # other way round): same output size claimed, neither decodes.
    for n_literals in (499, 501):
        with pytest.raises(CorruptionError):
            zstd.decompress(_with_header(payload, n_literals=n_literals))


# ---------------------------------------------------------------------------
# bounded temporaries
# ---------------------------------------------------------------------------


def test_decoder_temporaries_do_not_grow_with_the_input():
    """1 MiB at the token and literal density of real pages (~75 k
    tokens, ~220 k literals): the peak is the output, its ``bytes`` copy
    and block-sized arrays, not a Python object or an int64 per token."""
    rng = random.Random(7)
    buf, tokens = bytearray(), []
    while len(buf) < 1 << 20:
        lit_start, lit_len = len(buf), rng.choice((0, 0, 1, 2, 3, 5, 9))
        if not buf:
            lit_len = 4  # a match needs something behind it
        buf += rng.randbytes(lit_len)
        match_len = rng.choice((4, 5, 6, 8, 12, 30))
        distance = rng.randint(1, min(len(buf), 65535))
        for _ in range(match_len):
            buf.append(buf[-distance])
        tokens.append((lit_start, lit_len, match_len, distance))
    tokens.append((len(buf), 0, 0, 0))
    buf = bytes(buf)
    for codec, payload in (
        (zstd, bytes(encode_tokens(buf, tokens))),
        (lz4, _lz4_block(buf, tokens)),
    ):
        tracemalloc.start()
        try:
            out = codec.decompress(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == buf
        assert peak <= len(out) + (4 << 20)
