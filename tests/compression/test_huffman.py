"""Canonical Huffman coder."""

import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.huffman import (
    MAX_CODE_LENGTH,
    HuffmanEncoder,
    TableDecoder,
    _limit_lengths,
    canonical_codes,
    code_lengths,
    pack_bits,
    unpack_bits,
)
from tests.compression.reference_decoders import (
    BitReader,
    HuffmanDecoder,
    huffman_decode,
)


def _encode(lengths, symbols):
    return HuffmanEncoder(lengths).encode(np.array(symbols, dtype=np.int64))


def test_pack_bits_reader_round_trip():
    values = [(0b101, 3), (0b1, 1), (0, 0), (0xABC, 12), (0, 5)]
    stream = pack_bits(
        np.array([code for code, _ in values]),
        np.array([length for _, length in values]),
    )
    # 21 bits, MSB first, zero-padded to three bytes.
    assert stream == bytes([0b10111010, 0b10111100, 0b00000000])
    reader = BitReader(stream)
    for code, length in values:
        assert reader.read(length) == code


@given(st.lists(st.tuples(st.integers(0, 16), st.integers(0, 0xFFFF)), max_size=200))
@settings(max_examples=100, deadline=None)
def test_pack_bits_any_widths_up_to_16(fields):
    widths = np.array([width for width, _ in fields], dtype=np.int64)
    values = np.array([value for _, value in fields], dtype=np.int64)
    stream = pack_bits(values, widths)
    assert len(stream) == (int(widths.sum()) + 7) // 8
    reader = BitReader(stream)
    for width, value in fields:
        # Like the bit-at-a-time writer it replaces, a field keeps only
        # its low ``width`` bits.
        assert reader.read(width) == value & ((1 << width) - 1)


def test_pack_bits_empty_stream():
    empty = np.array([], dtype=np.int64)
    assert pack_bits(empty, empty) == b""
    assert pack_bits(np.array([5, 9]), np.array([0, 0])) == b""


def test_pack_bits_rejects_fields_it_cannot_place():
    with pytest.raises(ValueError):
        pack_bits(np.array([1, 1]), np.array([3, 17]))


_fields = st.lists(st.tuples(st.integers(0, 16), st.integers(0, 0xFFFF)), max_size=200)


@given(_fields, st.integers(0, 3))
@settings(deadline=None)
def test_unpack_bits_inverts_pack_bits(fields, trailing_empty):
    # Zero-width fields anywhere, 16-bit ones, and zero-width fields at
    # the very end (they start where the stream ends).
    fields = fields + [(0, 7)] * trailing_empty
    widths = np.array([width for width, _ in fields], dtype=np.int64)
    values = np.array([value for _, value in fields], dtype=np.int64)
    stream = pack_bits(values, widths)
    expected = values & ((1 << widths) - 1)
    assert unpack_bits(stream, widths).tolist() == expected.tolist()
    # From a bit offset: the tail of the same stream, wherever it is cut.
    for cut in {0, len(fields) // 2, len(fields)}:
        tail = unpack_bits(stream, widths[cut:], start=int(widths[:cut].sum()))
        assert tail.tolist() == expected[cut:].tolist()


def test_unpack_bits_refuses_what_the_data_cannot_hold():
    stream = pack_bits(np.array([5, 1, 9]), np.array([3, 1, 4]))
    assert len(stream) == 1
    assert unpack_bits(stream, np.array([3, 1, 4])).tolist() == [5, 1, 9]
    with pytest.raises(ValueError):
        unpack_bits(stream, np.array([3, 1, 5]))
    with pytest.raises(ValueError):
        unpack_bits(stream, np.array([3, 1, 4]), start=1)
    with pytest.raises(ValueError):
        unpack_bits(b"", np.array([1]))
    with pytest.raises(ValueError):
        unpack_bits(bytes(8), np.array([17]))
    empty = np.array([], dtype=np.int64)
    assert unpack_bits(b"", empty).tolist() == []
    assert unpack_bits(b"", np.array([0, 0])).tolist() == [0, 0]


def test_code_lengths_empty_and_single():
    assert code_lengths([0, 0, 0]) == [0, 0, 0]
    assert code_lengths([0, 5, 0]) == [0, 1, 0]


def _reference_code_lengths(frequencies):
    """The tree as first written: every merge deepens each symbol below
    it.  Ties break on (weight, symbol), then on merge order."""
    lengths = [0] * len(frequencies)
    heap = [(freq, sym, [sym]) for sym, freq in enumerate(frequencies) if freq > 0]
    if len(heap) < 2:
        for _, sym, _ in heap:
            lengths[sym] = 1
        return lengths
    heapq.heapify(heap)
    tiebreak = len(frequencies)
    while len(heap) > 1:
        w1, _, syms1 = heapq.heappop(heap)
        w2, _, syms2 = heapq.heappop(heap)
        for sym in syms1 + syms2:
            lengths[sym] += 1
        heapq.heappush(heap, (w1 + w2, tiebreak, syms1 + syms2))
        tiebreak += 1
    return _limit_lengths(lengths, frequencies)


@given(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 10**6)), max_size=300))
@settings(max_examples=200, deadline=None)
def test_code_lengths_match_the_reference_tree(frequencies):
    # Small counts make ties, which is where a different merge order
    # would show; the stored tables are part of the payload bytes.
    assert code_lengths(frequencies) == _reference_code_lengths(frequencies)


def test_code_lengths_two_symbols():
    lengths = code_lengths([3, 7])
    assert lengths == [1, 1]


def test_frequent_symbols_get_shorter_codes():
    freqs = [1000, 100, 10, 1]
    lengths = code_lengths(freqs)
    assert lengths[0] <= lengths[1] <= lengths[2] <= lengths[3]


def test_lengths_respect_limit_on_skewed_distribution():
    # Fibonacci-like frequencies force deep Huffman trees.
    freqs = [1]
    for _ in range(40):
        freqs.append(freqs[-1] + (freqs[-2] if len(freqs) > 1 else 1))
    lengths = code_lengths(freqs)
    assert max(lengths) <= MAX_CODE_LENGTH
    assert all(length > 0 for length in lengths)


def test_kraft_inequality_holds():
    rng = random.Random(3)
    freqs = [rng.randint(0, 1000) for _ in range(256)]
    lengths = code_lengths(freqs)
    kraft = sum(2.0 ** -length for length in lengths if length)
    assert kraft <= 1.0 + 1e-9


def test_canonical_codes_are_prefix_free():
    freqs = [10, 20, 30, 40, 5, 1]
    codes = canonical_codes(code_lengths(freqs))
    rendered = [format(c, f"0{l}b") for c, l in codes.values()]
    for i, a in enumerate(rendered):
        for j, b in enumerate(rendered):
            if i != j:
                assert not b.startswith(a)


def _round_trip(symbols, alphabet=256):
    freqs = [0] * alphabet
    for sym in symbols:
        freqs[sym] += 1
    lengths = code_lengths(freqs)
    stream = _encode(lengths, symbols)

    reader = BitReader(stream + b"\x00\x00")
    decoder = HuffmanDecoder(lengths)
    slow = [decoder.decode_one(reader) for _ in symbols]
    fast = TableDecoder(lengths).decode_all(stream, len(symbols))
    return slow, fast


def test_encoder_decoder_round_trip_text():
    symbols = list(b"the quick brown fox jumps over the lazy dog" * 20)
    slow, fast = _round_trip(symbols)
    assert slow == symbols
    assert fast.tolist() == symbols


@given(st.lists(st.integers(0, 255), min_size=1, max_size=2000))
@settings(max_examples=100, deadline=None)
def test_round_trip_random_symbols(symbols):
    slow, fast = _round_trip(symbols)
    assert slow == symbols
    assert fast.tolist() == symbols


def test_table_decoder_rejects_garbage():
    lengths = code_lengths([5, 5])  # two symbols, 1-bit codes
    decoder = TableDecoder([0] * 256)  # table with no valid codes
    with pytest.raises(ValueError):
        decoder.decode_all(b"\xff", 1)
    # and a valid decoder cannot decode more symbols than the stream holds
    # without hitting padding (which decodes deterministically) — verify the
    # real decoder at least decodes the right count.
    out = TableDecoder(lengths).decode_all(_encode(lengths, [0, 1, 0]), 3)
    assert out.tolist() == [0, 1, 0]


def test_compression_beats_raw_for_skewed_data():
    rng = random.Random(11)
    symbols = rng.choices(range(8), weights=[100, 50, 20, 10, 5, 2, 1, 1], k=5000)
    freqs = [0] * 256
    for sym in symbols:
        freqs[sym] += 1
    lengths = code_lengths(freqs)
    assert len(_encode(lengths, symbols)) < len(symbols) / 2


@st.composite
def _coded_streams(draw):
    """(lengths, symbols): alphabets of one symbol, skews that reach the
    12-bit limit, and streams of several decode blocks."""
    alphabet = draw(st.sampled_from([1, 2, 3, 34, 256]))
    used = draw(st.integers(1, alphabet))
    skew = draw(st.sampled_from([0.0, 0.3, 0.7]))  # 0.7: Fibonacci-deep trees
    weights = [int(1.0 / (1.0 - skew) ** (i % 40)) + 1 for i in range(used)]
    count = draw(st.one_of(st.integers(1, 300), st.integers(3000, 12000)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    symbols = rng.choices(range(used), weights=weights, k=count)
    freqs = [0] * alphabet
    for sym in symbols:
        freqs[sym] += 1
    return code_lengths(freqs), symbols


@given(_coded_streams())
@settings(deadline=None)
def test_decode_all_matches_the_bit_at_a_time_decoder(case):
    lengths, symbols = case
    stream = _encode(lengths, symbols)
    fast = TableDecoder(lengths).decode_all(stream, len(symbols))
    assert fast.tolist() == huffman_decode(lengths, stream, len(symbols)) == symbols
    # Any shorter count is a prefix; nothing past the stream is a symbol.
    cut = len(symbols) // 2
    assert TableDecoder(lengths).decode_all(stream, cut).tolist() == symbols[:cut]
    with pytest.raises(ValueError):
        TableDecoder(lengths).decode_all(stream, len(symbols) + 8)
    with pytest.raises(ValueError):
        TableDecoder(lengths).decode_all(stream[:-1], len(symbols))


def test_decode_all_reaches_twelve_bit_codes_across_block_borders():
    freqs = [1, 1]
    while len(freqs) < 30:
        freqs.append(freqs[-1] + freqs[-2])
    lengths = code_lengths(freqs)
    assert max(lengths) == MAX_CODE_LENGTH
    # Mostly the rarest (longest) codes, so that 12-bit codes straddle
    # every 1 KiB block border of a 12 KiB stream.
    symbols = [i % 6 for i in range(8000)] + list(range(30)) * 10
    stream = _encode(lengths, symbols)
    assert len(stream) > 12 * 1024
    fast = TableDecoder(lengths).decode_all(stream, len(symbols))
    assert fast.tolist() == symbols


def test_decode_all_refuses_symbols_read_from_padding():
    lengths = code_lengths([5, 5])  # two symbols, 1-bit codes
    stream = _encode(lengths, [0, 1, 0])
    assert stream == b"\x40"
    decoder = TableDecoder(lengths)
    # The five pad bits of the last byte read as five more codes (only
    # the container's count says they are not); past the last byte there
    # is nothing, where the decoder used to invent zero bits for ever.
    assert decoder.decode_all(stream, 8).tolist() == [0, 1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        decoder.decode_all(stream, 9)
    with pytest.raises(ValueError):
        decoder.decode_all(b"", 1)
    assert decoder.decode_all(b"", 0).tolist() == []
    # A code that starts in the data and ends in the padding.
    lengths = [0, 0, 12, 12]
    with pytest.raises(ValueError):
        TableDecoder(lengths).decode_all(b"\x00", 1)


@pytest.mark.parametrize(
    "lengths",
    [
        [13, 1],  # over the limit: a negative shift in a naive table build
        [200, 1],
        [1, 1, 1],  # oversubscribed: Kraft sum 3/2
        [1, 2, 2, 12],
    ],
)
def test_table_decoder_refuses_impossible_tables(lengths):
    with pytest.raises(ValueError):
        TableDecoder(lengths)


def test_table_decoder_refuses_windows_no_code_owns():
    decoder = TableDecoder([2, 2, 0, 2])  # codes 00 01 10; 11 is unused
    assert decoder.decode_all(b"\x18", 3).tolist() == [0, 1, 3]
    with pytest.raises(ValueError):
        decoder.decode_all(b"\x1c", 4)  # ... then 11
