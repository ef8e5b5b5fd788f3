"""Canonical Huffman coding with length-limited codes.

Used as the entropy stage of the zstd-like codec.  Code lengths are computed
with a standard Huffman tree, then adjusted to a 12-bit maximum using the
same overflow-repair pass zlib applies, and finally assigned canonically so
the decoder only needs the length table.

Both sides work on whole arrays.  Encoding: frequencies from one
``bincount``, codes and widths from lookup arrays, and :func:`pack_bits`
lays every field of a stream into its bit positions at once.  Decoding:
:func:`unpack_bits` is its inverse for fields of known widths, and
:meth:`TableDecoder.decode_all` finds the code boundaries by looking the
12-bit window up at every bit position and following the resulting
"next code starts at" array in strides.  None of that may change a bit
of the format: the streams are MSB-first with a zero-padded last byte,
the tree breaks frequency ties by symbol (leaves) and then by creation
order (internal nodes), and ``tests/compression/golden/codec_digests.json``
pins the result.  The decode side reads stored bytes: what no encoder
writes is a ``ValueError``, in time and memory bounded by the stream
(the bit-at-a-time decoders it replaced are the references in
``tests/compression/reference_decoders.py``).
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


def unpack_bits(data: bytes, widths: np.ndarray, start: int = 0) -> np.ndarray:
    """The inverse of :func:`pack_bits`: the ``widths[i]``-bit fields of
    ``data`` from bit ``start`` on, MSB first, as an integer array.
    Raises ``ValueError`` when a field is wider than 16 bits or the
    fields ask for more bits than ``data`` holds."""
    if len(widths) and widths.max() > 16:
        raise ValueError("unpack_bits: field wider than 16 bits")
    ends = np.cumsum(widths, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    if start + total > 8 * len(data):
        raise ValueError("bit stream exhausted")
    # Only the bytes these fields touch, padded so that every field has
    # the 24-bit window pack_bits wrote it through (a zero-width field
    # may start at the very end).
    first_byte = start >> 3
    stream = np.frombuffer(
        data[first_byte : (start + total + 7) >> 3] + b"\x00\x00\x00", dtype=np.uint8
    )
    starts = ends - widths + (start & 7)
    first = starts >> 3
    windows = (
        stream[first].astype(np.int64) << 16
        | stream[first + 1].astype(np.int64) << 8
        | stream[first + 2]
    )
    return (windows >> (24 - (starts & 7) - widths)) & ((1 << widths) - 1)


class HuffmanEncoder:
    """Encode symbols with a canonical code built from frequencies."""

    def __init__(self, lengths: Sequence[int]) -> None:
        self.lengths = list(lengths)
        codes = [0] * len(self.lengths)
        for sym, (code, _) in canonical_codes(lengths).items():
            codes[sym] = code
        self._codes = np.array(codes, dtype=np.int64)
        self._widths = np.array(self.lengths, dtype=np.int64)

    def encode(self, symbols: np.ndarray) -> bytes:
        """The bitstream of ``symbols`` (an integer array)."""
        return pack_bits(self._codes[symbols], self._widths[symbols])


#: ``decode_all`` works through its stream this many bytes at a time, so
#: its temporaries (a few arrays with one entry per bit of the block)
#: neither grow with the input nor outgrow what the allocator hands
#: back from its free lists (fresh pages per call cost 1.8x on a page).
_DECODE_BLOCK = 1024
#: One Python-level step of ``decode_all`` covers 2**this many symbols.
_STRIDE_LOG2 = 4
#: Right shifts that slide a ``MAX_CODE_LENGTH``-bit window over the
#: first 8 bit offsets of a 24-bit word.
_WINDOW_SHIFTS = np.arange(
    24 - MAX_CODE_LENGTH, 16 - MAX_CODE_LENGTH, -1, dtype=np.uint32
)


class TableDecoder:
    """Table-driven canonical Huffman decoder for whole symbol streams.

    A ``2**MAX_CODE_LENGTH`` table maps every 12-bit window to the symbol
    and length of the code it starts with.  Canonical codes are handed
    out in (length, symbol) order, so a code's slots begin where the
    previous code's ended and the table is one ``np.repeat``.  Raises
    ``ValueError`` for a code length over the limit, an oversubscribed
    table, a window no code owns, a count the stream cannot hold.
    """

    def __init__(self, lengths: Sequence[int]) -> None:
        lengths = np.asarray(lengths, dtype=np.int64)
        if len(lengths) and lengths.max() > MAX_CODE_LENGTH:
            raise ValueError("Huffman code length over the limit")
        used = np.flatnonzero(lengths)
        order = used[np.argsort(lengths[used], kind="stable")]
        spans = 1 << (MAX_CODE_LENGTH - lengths[order])
        filled = int(spans.sum())
        if filled > 1 << MAX_CODE_LENGTH:
            raise ValueError("oversubscribed Huffman table")
        # Windows from ``_filled`` up belong to no code; they move on a
        # whole window, so a walk over them still ends.
        self._filled = filled
        size = 1 << MAX_CODE_LENGTH
        self._symbols = np.zeros(size, dtype=np.min_scalar_type(len(lengths) - 1))
        self._symbols[:filled] = np.repeat(order, spans)
        self._lengths = np.full(size, MAX_CODE_LENGTH, dtype=np.uint8)
        self._lengths[:filled] = np.repeat(lengths[order], spans)

    def decode_all(self, data: bytes, count: int) -> np.ndarray:
        """Decode exactly ``count`` symbols from ``data`` (an int array).

        Array-at-a-time: look the window up at *every* bit position of a
        block, which gives "the code after the one starting here starts
        there" as an array; composing that array with itself
        ``_STRIDE_LOG2`` times gives the same for 16 codes on, so Python
        only visits every 16th code start (the anchors) and 15 gathers
        over the anchors fill in the starts between them.
        """
        # Every code is at least one bit: refuse a count the stream
        # cannot hold before decoding anything.
        if count > 8 * len(data):
            raise ValueError("Huffman stream shorter than its symbol count")
        stream = np.frombuffer(data + b"\x00\x00", dtype=np.uint8)
        stride = 1 << _STRIDE_LOG2
        pieces = []
        position = 0  # bit at which the next code starts
        while count > 0:
            base = position >> 3
            if base >= len(data):
                raise ValueError("Huffman stream exhausted")
            chunk = stream[base : base + _DECODE_BLOCK + 2]
            m = 8 * (len(chunk) - 2)  # code start positions in this block
            wide = chunk.astype(np.uint32)
            words = wide[:-2] << 16 | wide[1:-1] << 8 | wide[2:]
            windows = (words[:, None] >> _WINDOW_SHIFTS).ravel()
            windows &= (1 << MAX_CODE_LENGTH) - 1
            # step[p]: where the code after the one at p starts.  Starts
            # past the block (at most 11 bits past) stay where they are.
            step = np.arange(m + MAX_CODE_LENGTH)
            step[:m] += self._lengths.take(windows)
            far = step
            for _ in range(_STRIDE_LOG2):
                far = far.take(far)
            anchors = []
            at = position & 7
            following = far.item
            while at < m:
                anchors.append(at)
                at = following(at)
            starts = np.empty((stride, len(anchors)), dtype=np.intp)
            starts[0] = anchors
            for row in range(1, stride):
                # (No index is out of range; "raise" would buffer ``out``.)
                step.take(starts[row - 1], out=starts[row], mode="clip")
            starts = starts.T.ravel()
            starts = starts[: min(count, int(np.searchsorted(starts, m)))]
            codes = windows[starts]
            if codes.max() >= self._filled:
                raise ValueError("invalid Huffman stream")
            pieces.append(self._symbols[codes])
            count -= len(codes)
            position = 8 * base + int(starts[-1]) + int(self._lengths[codes[-1]])
        # The encoder pads the last byte only: a code that runs past the
        # data was read from padding.
        if position > 8 * len(data):
            raise ValueError("Huffman stream exhausted")
        return np.concatenate(pieces) if pieces else self._symbols[:0]
