"""A zstd-like codec: LZ77 with lazy matching + canonical Huffman entropy
coding.

This is **not** the RFC 8878 bitstream (that would be thousands of lines of
FSE tables for no reproductive value), but it mirrors zstd's actual
architecture: literals are entropy-coded with one Huffman table, and the
sequence stream is split into literal-length / match-length / offset
fields, each coded as a log-bucket symbol (its own Huffman table) plus raw
extra bits — the same alphabet factorization zstd and DEFLATE use.

It is a faithful stand-in for what distinguishes zstd in this paper:

* stronger match finding than LZ4 (deeper hash chains, lazy evaluation),
* entropy-coded output, so the byte statistics are near-uniform and the
  PolarCSD hardware gzip stage gains almost nothing by re-compressing it
  (Figure 5c).

Container layout (integers are LEB128 varints)::

    magic | mode | original_size
    mode RAW:        raw bytes
    mode COMPRESSED: n_tokens | n_literals
                     literal table | ll table | ml table | of table
                     |lit bits| lit bitstream
                     |ll bits| ll bitstream
                     |ml bits| ml bitstream
                     |of bits| of bitstream
                     extra-bits bitstream (to end)

Decoding is array-at-a-time up to the last step: the symbol streams
through :meth:`TableDecoder.decode_all`, the extra bits through one
:func:`unpack_bits` per block of tokens, all literal runs scattered to
their places at once, then one slice copy per match into a buffer of
the final size.  The payload is stored bytes, so every way it can lie
is a ``CorruptionError`` raised before the work it would cause: counts a
stream cannot hold, more literals than output, lengths that do not add
up to ``original_size`` (checked before the output buffer exists),
impossible code tables, exhausted extra bits, a match distance of zero
or before the start.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.common.errors import CorruptionError
from repro.compression.base import Compressor, Plan
from repro.compression.huffman import (
    HuffmanEncoder,
    TableDecoder,
    code_lengths,
    pack_bits,
    unpack_bits,
)
from repro.compression.lz77 import MatchFinder, Token

_MAGIC = 0x5A
_MODE_RAW = 0
_MODE_COMPRESSED = 1
#: Dictionary mode (§6 "shared dictionaries"): the decoder must prime its
#: window with the same dictionary bytes the encoder used.
_MODE_DICT = 2

#: Log-bucket alphabet size for token fields (values up to 65535).
_BUCKET_ALPHABET = 34
#: The largest literal run, match length or distance a token may carry.
_MAX_FIELD = 65535


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptionError("zstd: truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _bucket(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """values -> (symbols, n_extra_bits, extra_values); two buckets/octave."""
    small = values < 8
    # frexp's exponent is the bit length; floats hold these ints exactly.
    n = np.frexp(values)[1].astype(np.int64) - 1
    nbits = np.where(small, 0, n - 1)
    sym = np.where(small, values, 8 + (n - 3) * 2 + ((values >> nbits) & 1))
    return sym, nbits, values & ((1 << nbits) - 1)


#: The inverse of :func:`_bucket`, per symbol: how many raw extra bits
#: follow it, and the value it stands for when they are all zero.
_SYMBOLS = np.arange(_BUCKET_ALPHABET)
_EXTRA_BITS = np.where(_SYMBOLS < 8, 0, (_SYMBOLS - 8) // 2 + 2)
_BUCKET_BASE = np.where(
    _SYMBOLS < 8, _SYMBOLS, (2 + (_SYMBOLS & 1)) << _EXTRA_BITS
)

#: The decoder unpacks and executes this many tokens per numpy pass and
#: places this many literal bytes per scatter, so its temporaries stay a
#: few hundred KB however many tokens or literals the payload carries.
_TOKEN_BLOCK = 4096
_LITERAL_BLOCK = 16384


def _write_table(out: bytearray, lengths: Sequence[int]) -> None:
    used = [(sym, length) for sym, length in enumerate(lengths) if length]
    _write_varint(out, len(used))
    for sym, length in used:
        out.append(sym)
        out.append(length)


def _read_table(data: bytes, pos: int, alphabet: int) -> Tuple[List[int], int]:
    count, pos = _read_varint(data, pos)
    lengths = [0] * alphabet
    for _ in range(count):
        if pos + 2 > len(data):
            raise CorruptionError("zstd: truncated code table")
        sym = data[pos]
        if sym >= alphabet:
            raise CorruptionError(f"zstd: symbol {sym} outside alphabet")
        lengths[sym] = data[pos + 1]
        pos += 2
    return lengths, pos


def _split_long_literals(tokens: List[Token]) -> List[Token]:
    """Cut literal runs the bucket alphabet cannot express into
    ``_MAX_FIELD``-byte tokens with no match (the decoder skips those)."""
    out: List[Token] = []
    for lit_start, lit_len, match_len, distance in tokens:
        while lit_len > _MAX_FIELD:
            out.append((lit_start, _MAX_FIELD, 0, 0))
            lit_start += _MAX_FIELD
            lit_len -= _MAX_FIELD
        out.append((lit_start, lit_len, match_len, distance))
    return out


def _varint_len(value: int) -> int:
    return max(1, (value.bit_length() + 6) // 7)


def entropy_stage(buf: bytes, tokens: List[Token], start: int = 0) -> Plan:
    """The container for ``tokens`` over ``buf[start:]`` (``start`` bytes
    of dictionary prefix select dictionary mode).

    Everything but the bit packing happens here: the literal join, the
    bucketing, one ``bincount`` and one code-length table per symbol
    stream.  A stream of symbols with code lengths ``len`` packs into
    ``ceil(sum(freq * len) / 8)`` bytes, so the container's length is
    known exactly before :func:`pack_bits` runs."""
    original_size = len(buf) - start
    if original_size > _MAX_FIELD:
        tokens = _split_long_literals(tokens)
    literals = b"".join(
        [buf[lit_start : lit_start + lit_len] for lit_start, lit_len, _, _ in tokens]
    )
    # One row per token: literal length, match length, distance.  Row
    # order is also the order of the extra-bits stream, and a token
    # without a match has distance 0, which takes no extra bits.
    fields = np.array(tokens, dtype=np.int64)[:, 1:]
    syms, nbits, extra = _bucket(fields)
    streams = []
    size = (
        2 + _varint_len(original_size) + _varint_len(len(tokens))
        + _varint_len(len(literals)) + ((int(nbits.sum()) + 7) >> 3)
    )
    for symbols, alphabet in (
        (np.frombuffer(literals, dtype=np.uint8), 256),
        (syms[:, 0], _BUCKET_ALPHABET),
        (syms[:, 1], _BUCKET_ALPHABET),
        (syms[:, 2][fields[:, 1] != 0], _BUCKET_ALPHABET),
    ):
        frequencies = np.bincount(symbols, minlength=alphabet)
        lengths = code_lengths(frequencies.tolist())
        used = int(np.count_nonzero(lengths))
        stream_bytes = (int(np.dot(frequencies, lengths)) + 7) >> 3
        size += (
            _varint_len(used) + 2 * used + _varint_len(stream_bytes) + stream_bytes
        )
        streams.append((symbols, lengths))

    def pack() -> bytes:
        body = bytearray([_MAGIC, _MODE_DICT if start else _MODE_COMPRESSED])
        _write_varint(body, original_size)
        _write_varint(body, len(tokens))
        _write_varint(body, len(literals))
        for symbols, lengths in streams:
            _write_table(body, lengths)
            stream = HuffmanEncoder(lengths).encode(symbols)
            _write_varint(body, len(stream))
            body += stream
        body += pack_bits(extra.ravel(), nbits.ravel())
        return bytes(body)

    return Plan(size, pack)


def _decode_symbols(
    data: bytes, pos: int, count: int, alphabet: int
) -> Tuple[np.ndarray, int]:
    lengths, pos = _read_table(data, pos, alphabet)
    size, pos = _read_varint(data, pos)
    stream = data[pos : pos + size]
    if len(stream) != size:
        raise CorruptionError("zstd: truncated bitstream")
    try:
        symbols = TableDecoder(lengths).decode_all(stream, count)
    except ValueError as exc:
        raise CorruptionError(f"zstd: {exc}") from exc
    return symbols, pos + size


def _token_fields(syms: np.ndarray, extras: bytes) -> np.ndarray:
    """Rows of literal lengths, match lengths and distances, one column
    per token, from the tokens' rows of bucket symbols and the extra
    bits interleaved in the same order.  A token without a match has
    offset symbol 0: no extra bits, distance 0."""
    fields = np.empty(syms.shape[::-1], dtype=np.uint16)
    bit = 0
    for lo in range(0, len(syms), _TOKEN_BLOCK):
        block = syms[lo : lo + _TOKEN_BLOCK]
        widths = _EXTRA_BITS[block]
        try:
            values = unpack_bits(extras, widths.ravel(), bit)
        except ValueError as exc:
            raise CorruptionError(f"zstd: extra bits: {exc}") from exc
        values = _BUCKET_BASE[block] + values.reshape(-1, 3)
        fields[:, lo : lo + _TOKEN_BLOCK] = values.T
        bit += int(widths.sum())
    return fields


def _execute(
    fields: np.ndarray, literals: np.ndarray, prefix: bytes, original_size: int
) -> bytes:
    """Run the tokens of :func:`_token_fields` over ``prefix``: the
    ``original_size`` bytes they produce."""
    n_literals, n_matched, _ = fields.sum(axis=1, dtype=np.int64).tolist()
    if n_literals != len(literals):
        raise CorruptionError("zstd: literal runs do not fit the literal stream")
    if n_literals + n_matched != original_size:
        raise CorruptionError(
            f"zstd: size mismatch ({n_literals + n_matched} != {original_size})"
        )
    # Only now is ``original_size`` known to be what the tokens produce,
    # so a payload cannot size this buffer by claiming a number.
    out = bytearray(len(prefix) + original_size)
    out[: len(prefix)] = prefix
    view = np.frombuffer(out, dtype=np.uint8)
    at = len(prefix)
    lit_at = 0
    for lo in range(0, fields.shape[1], _TOKEN_BLOCK):
        block = fields[:, lo : lo + _TOKEN_BLOCK].astype(np.int64)
        lit_lens, match_lens, distances = block
        ends = at + np.cumsum(lit_lens + match_lens)
        dests = ends - match_lens  # where each match is written
        sources = dests - distances
        if (sources < 0).any() or (distances[match_lens != 0] == 0).any():
            raise CorruptionError("zstd: match distance zero or before the start")
        # Literals never depend on the output: scatter every run of the
        # block to its place first, then only matches are left to copy.
        lit_ends = lit_at + np.cumsum(lit_lens)
        lit_starts = lit_ends - lit_lens
        shifts = dests - lit_ends  # literal stream position -> output position
        lit_end = int(lit_ends[-1])
        for lo_lit in range(lit_at, lit_end, _LITERAL_BLOCK):
            hi_lit = min(lo_lit + _LITERAL_BLOCK, lit_end)
            runs = lit_ends.clip(lo_lit, hi_lit) - lit_starts.clip(lo_lit, hi_lit)
            places = np.repeat(shifts, runs) + np.arange(lo_lit, hi_lit)
            view[places] = literals[lo_lit:hi_lit]
        # A match that reaches into its own output (distance < length)
        # repeats the ``distance`` bytes before it.
        source_ends = np.minimum(sources + match_lens, dests)
        for dest, end, source, source_end in zip(
            dests.tolist(), ends.tolist(), sources.tolist(), source_ends.tolist()
        ):
            if source_end - source == end - dest:
                out[dest:end] = out[source:source_end]
            else:
                length = end - dest
                pattern = out[source:dest]
                out[dest:end] = (pattern * (length // len(pattern) + 1))[:length]
        at = int(ends[-1])
        lit_at = lit_end
    return bytes(memoryview(out)[len(prefix) :])


class ZstdCodec(Compressor):
    """The zstd-like two-stage codec."""

    name = "zstd"

    def __init__(self, max_chain: int = 64, lazy: bool = True) -> None:
        self._finder = MatchFinder(
            window=_MAX_FIELD, max_chain=max_chain, lazy=lazy, max_match=_MAX_FIELD
        )

    # -- compression -----------------------------------------------------

    def compress(self, data: bytes, dictionary: bytes = b"") -> bytes:
        """Compress ``data``; with ``dictionary`` (table-level shared
        dictionary, §6) matches may reference the dictionary bytes and the
        decoder must supply the identical dictionary."""
        return self.plan(data, dictionary).pack()

    def plan(self, data: bytes, dictionary: bytes = b"") -> Plan:
        """:meth:`compress`'s output, sized before it is packed: the raw
        form is chosen on the container's size alone."""
        if len(data) < 64:
            return self._raw(data)
        if len(dictionary) > 65535:
            raise ValueError("dictionary exceeds the 64 KB match window")

        buf = dictionary + data if dictionary else data
        tokens = self._finder.tokenize(buf, start=len(dictionary))
        container = entropy_stage(buf, tokens, len(dictionary))
        if container.size >= len(data) + 2:
            return self._raw(data)
        return container

    @staticmethod
    def _raw(data: bytes) -> Plan:
        header = bytearray([_MAGIC, _MODE_RAW])
        _write_varint(header, len(data))
        return Plan(len(header) + len(data), lambda: bytes(header + data))

    # -- decompression ---------------------------------------------------

    def decompress(self, payload: bytes, dictionary: bytes = b"") -> bytes:
        if len(payload) < 2 or payload[0] != _MAGIC:
            raise CorruptionError("zstd: bad magic")
        mode = payload[1]
        original_size, pos = _read_varint(payload, 2)
        if mode == _MODE_RAW:
            data = payload[pos : pos + original_size]
            if len(data) != original_size:
                raise CorruptionError("zstd: truncated raw block")
            return bytes(data)
        if mode == _MODE_DICT and not dictionary:
            raise CorruptionError(
                "zstd: payload needs the shared dictionary it was "
                "compressed with"
            )
        if mode not in (_MODE_COMPRESSED, _MODE_DICT):
            raise CorruptionError(f"zstd: unknown mode {mode}")
        prefix = dictionary if mode == _MODE_DICT else b""

        n_tokens, pos = _read_varint(payload, pos)
        n_literals, pos = _read_varint(payload, pos)
        if n_literals > original_size:
            raise CorruptionError("zstd: more literals than output bytes")
        literals, pos = _decode_symbols(payload, pos, n_literals, 256)
        ll_syms, pos = _decode_symbols(payload, pos, n_tokens, _BUCKET_ALPHABET)
        ml_syms, pos = _decode_symbols(payload, pos, n_tokens, _BUCKET_ALPHABET)
        # ml symbol 0 encodes match length 0 (the final token, or a piece
        # of a split literal run); every other token carries an offset.
        has_match = ml_syms != 0
        of_syms, pos = _decode_symbols(
            payload, pos, int(np.count_nonzero(has_match)), _BUCKET_ALPHABET
        )
        syms = np.zeros((n_tokens, 3), dtype=np.uint8)
        syms[:, 0] = ll_syms
        syms[:, 1] = ml_syms
        syms[has_match, 2] = of_syms
        return _execute(
            _token_fields(syms, payload[pos:]), literals, prefix, original_size
        )
