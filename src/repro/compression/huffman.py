"""Canonical Huffman coding with length-limited codes.

Used as the entropy stage of the zstd-like codec.  Code lengths are computed
with a standard Huffman tree, then adjusted to a 12-bit maximum using the
same overflow-repair pass zlib applies, and finally assigned canonically so
the decoder only needs the length table.

The encode side works on whole symbol arrays: frequencies come from one
``bincount``, codes and widths from lookup arrays, and :func:`pack_bits`
lays every field of a stream into its bit positions at once.  None of
that may change a bit of the output: the streams are MSB-first with a
zero-padded last byte, the tree breaks frequency ties by symbol (leaves)
and then by creation order (internal nodes), and
``tests/compression/golden/codec_digests.json`` pins the result.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence

import numpy as np

# 12-bit limit keeps the table-driven decoder's lookup table small (4096
# entries) while costing well under 1% compression on typical pages.
MAX_CODE_LENGTH = 12


def code_lengths(frequencies: Sequence[int]) -> List[int]:
    """Per-symbol code lengths (0 = symbol unused), max 12 bits."""
    alphabet = len(frequencies)
    lengths = [0] * alphabet
    heap = [(freq, sym) for sym, freq in enumerate(frequencies) if freq > 0]
    if not heap:
        return lengths
    if len(heap) == 1:
        lengths[heap[0][1]] = 1
        return lengths

    # Build the Huffman tree; each heap item is (weight, node).  A leaf's
    # node id is its symbol and internal nodes count up from the alphabet
    # size, so the id is also the tie-break between equal weights.
    leaves = [sym for _, sym in heap]
    heapq.heapify(heap)
    parent = [0] * (2 * alphabet)
    node = alphabet
    while len(heap) > 1:
        w1, first = heapq.heappop(heap)
        w2, second = heapq.heappop(heap)
        parent[first] = parent[second] = node
        heapq.heappush(heap, (w1 + w2, node))
        node += 1
    # Children are created before their parents: walk down from the root.
    depth = [0] * node
    for inner in range(node - 2, alphabet - 1, -1):
        depth[inner] = depth[parent[inner]] + 1
    for sym in leaves:
        lengths[sym] = depth[parent[sym]] + 1

    return _limit_lengths(lengths, frequencies)


def _limit_lengths(lengths: List[int], frequencies: Sequence[int]) -> List[int]:
    """Clamp code lengths to MAX_CODE_LENGTH, preserving Kraft equality."""
    if max(lengths) <= MAX_CODE_LENGTH:
        return lengths
    counts = [0] * (max(lengths) + 1)
    for length in lengths:
        if length:
            counts[length] += 1
    # Fold everything deeper than the limit up to the limit.
    overflow = 0
    for depth in range(MAX_CODE_LENGTH + 1, len(counts)):
        overflow += counts[depth]
        counts[depth] = 0
    counts[MAX_CODE_LENGTH] += overflow
    # Repair the Kraft inequality by demoting shallow leaves.
    while _kraft(counts) > 1 << MAX_CODE_LENGTH:
        depth = MAX_CODE_LENGTH - 1
        while counts[depth] == 0:
            depth -= 1
        counts[depth] -= 1
        counts[depth + 1] += 2
        counts[MAX_CODE_LENGTH] -= 1
    # Reassign lengths: most frequent symbols get the shortest codes.
    used = sorted(
        (sym for sym, length in enumerate(lengths) if length),
        key=lambda sym: (-frequencies[sym], sym),
    )
    new_lengths = [0] * len(lengths)
    index = 0
    for depth in range(1, MAX_CODE_LENGTH + 1):
        for _ in range(counts[depth]):
            new_lengths[used[index]] = depth
            index += 1
    return new_lengths


def _kraft(counts: Sequence[int]) -> int:
    """Kraft sum scaled by 2**MAX_CODE_LENGTH."""
    total = 0
    for depth, count in enumerate(counts):
        if depth and count:
            total += count << (MAX_CODE_LENGTH - depth)
    return total


def canonical_codes(lengths: Sequence[int]) -> Dict[int, "tuple[int, int]"]:
    """Map symbol -> (code, length) using canonical ordering."""
    pairs = sorted(
        (length, sym) for sym, length in enumerate(lengths) if length
    )
    codes: Dict[int, "tuple[int, int]"] = {}
    code = 0
    prev_length = 0
    for length, sym in pairs:
        code <<= length - prev_length
        codes[sym] = (code, length)
        code += 1
        prev_length = length
    return codes


def pack_bits(values: np.ndarray, widths: np.ndarray) -> bytes:
    """Concatenate ``values[i]`` as a ``widths[i]``-bit field, MSB first,
    zero-padding the final byte.  Zero-width fields vanish; no field may
    be wider than 16 bits."""
    if len(widths) and widths.max() > 16:
        raise ValueError("pack_bits: field wider than 16 bits")
    ends = np.cumsum(widths, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    size = (total + 7) >> 3
    starts = ends - widths
    # A field of up to 16 bits at any bit offset touches at most three
    # bytes: left-align it in the 24-bit window that begins at its first
    # byte, then add each window byte into its place.  Fields never
    # overlap, so the sums are ORs (and exact in bincount's floats).
    windows = (values & ((1 << widths) - 1)) << (24 - (starts & 7) - widths)
    first = starts >> 3
    # A trailing zero-width field starts at ``total``: room for its
    # (empty) window too.
    out = np.zeros(size + 3)
    for offset, shift in enumerate((16, 8, 0)):
        out += np.bincount(
            first + offset, weights=(windows >> shift) & 0xFF, minlength=size + 3
        )
    return out[:size].astype(np.uint8).tobytes()


class BitReader:
    """MSB-first bit reader over a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._bits = 0
        self._nbits = 0

    def read(self, length: int) -> int:
        while self._nbits < length:
            if self._pos >= len(self._data):
                raise ValueError("bit stream exhausted")
            self._bits = (self._bits << 8) | self._data[self._pos]
            self._pos += 1
            self._nbits += 8
        self._nbits -= length
        value = (self._bits >> self._nbits) & ((1 << length) - 1)
        self._bits &= (1 << self._nbits) - 1
        return value


class HuffmanEncoder:
    """Encode symbols with a canonical code built from frequencies."""

    def __init__(self, lengths: Sequence[int]) -> None:
        self.lengths = list(lengths)
        codes = [0] * len(self.lengths)
        for sym, (code, _) in canonical_codes(lengths).items():
            codes[sym] = code
        self._codes = np.array(codes, dtype=np.int64)
        self._widths = np.array(self.lengths, dtype=np.int64)

    @classmethod
    def from_frequencies(cls, frequencies: Sequence[int]) -> "HuffmanEncoder":
        return cls(code_lengths(frequencies))

    def encode(self, symbols: np.ndarray) -> bytes:
        """The bitstream of ``symbols`` (an integer array)."""
        return pack_bits(self._codes[symbols], self._widths[symbols])


class HuffmanDecoder:
    """Canonical Huffman decoder driven by the length table alone."""

    def __init__(self, lengths: Sequence[int]) -> None:
        self.lengths = list(lengths)
        # first_code[l], first_index[l]: canonical decode tables.
        pairs = sorted(
            (length, sym) for sym, length in enumerate(lengths) if length
        )
        self._symbols = [sym for _, sym in pairs]
        self._first_code = {}
        self._first_index = {}
        self._count = {}
        code = 0
        prev_length = 0
        index = 0
        for length, _ in pairs:
            if length != prev_length:
                code <<= length - prev_length
                self._first_code[length] = code
                self._first_index[length] = index
                prev_length = length
            self._count[length] = self._count.get(length, 0) + 1
            code += 1
            index += 1

    def decode_one(self, reader: BitReader) -> int:
        code = 0
        length = 0
        while True:
            code = (code << 1) | reader.read(1)
            length += 1
            if length > MAX_CODE_LENGTH:
                raise ValueError("invalid Huffman stream")
            first = self._first_code.get(length)
            if first is not None:
                offset = code - first
                if 0 <= offset < self._count[length]:
                    return self._symbols[self._first_index[length] + offset]


class TableDecoder:
    """Table-driven canonical Huffman decoder for batch decoding.

    Builds a ``2**MAX_CODE_LENGTH`` lookup table mapping every possible bit
    prefix to ``(symbol, code_length)``, then decodes a whole symbol stream
    in one tight loop — roughly an order of magnitude faster than bit-by-bit
    decoding, which matters when decompressing thousands of pages.
    """

    def __init__(self, lengths: Sequence[int]) -> None:
        bits = MAX_CODE_LENGTH
        table: List[int] = [0] * (1 << bits)
        for sym, (code, length) in canonical_codes(lengths).items():
            base = code << (bits - length)
            # Pack (symbol, length) into one int: sym * 16 + length.
            packed = (sym << 4) | length
            for i in range(base, base + (1 << (bits - length))):
                table[i] = packed
        self._table = table

    def decode_all(self, data: bytes, count: int) -> List[int]:
        """Decode exactly ``count`` symbols from ``data``."""
        bits_needed = MAX_CODE_LENGTH
        table = self._table
        acc = 0
        nbits = 0
        pos = 0
        n = len(data)
        out: List[int] = []
        append = out.append
        for _ in range(count):
            while nbits < bits_needed:
                if pos < n:
                    acc = (acc << 8) | data[pos]
                    pos += 1
                else:
                    acc <<= 8  # zero padding at stream end
                nbits += 8
            packed = table[(acc >> (nbits - bits_needed)) & 0xFFF]
            length = packed & 0xF
            if length == 0:
                raise ValueError("invalid Huffman stream")
            nbits -= length
            acc &= (1 << nbits) - 1
            append(packed >> 4)
        return out
