"""Naive decoders: what the fast ones in ``src/`` are compared against.

These are the decoders the codecs shipped with before the decode side
was rewritten for throughput, moved here unchanged: one bit, one field
and one byte at a time.  They define what every stored payload means;
they are not hardened (a malformed payload may raise anything).
"""

from repro.common.errors import CorruptionError
from repro.compression.huffman import MAX_CODE_LENGTH
from repro.compression.lz77 import MIN_MATCH
from repro.compression.zstd import (
    _BUCKET_ALPHABET,
    _MAGIC,
    _MODE_DICT,
    _MODE_RAW,
    _read_table,
    _read_varint,
)


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


class HuffmanDecoder:
    """Canonical Huffman decoder driven by the length table alone."""

    def __init__(self, lengths) -> None:
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


def huffman_decode(lengths, stream: bytes, count: int) -> list:
    """``count`` symbols of ``stream``, one bit at a time."""
    reader = BitReader(stream)
    decoder = HuffmanDecoder(lengths)
    return [decoder.decode_one(reader) for _ in range(count)]


def _unbucket(sym: int, extra: int) -> int:
    """(symbol, extra bits already read) -> value."""
    if sym < 8:
        return sym
    k = sym - 8
    n = k // 2 + 3
    top = 2 + (k & 1)
    return (top << (n - 1)) | extra


def _extra_bits_of(sym: int) -> int:
    if sym < 8:
        return 0
    return (sym - 8) // 2 + 2


def _read_value(sym: int, extras: BitReader) -> int:
    nbits = _extra_bits_of(sym)
    extra = extras.read(nbits) if nbits else 0
    return _unbucket(sym, extra)


def _decode_symbols(data: bytes, pos: int, count: int, alphabet: int):
    lengths, pos = _read_table(data, pos, alphabet)
    size, pos = _read_varint(data, pos)
    return huffman_decode(lengths, data[pos : pos + size], count), pos + size


def zstd_decompress(payload: bytes, dictionary: bytes = b"") -> bytes:
    """The zstd-like container, one token and one copied byte at a time."""
    assert payload[0] == _MAGIC
    mode = payload[1]
    original_size, pos = _read_varint(payload, 2)
    if mode == _MODE_RAW:
        return payload[pos : pos + original_size]
    prefix = dictionary if mode == _MODE_DICT else b""
    n_tokens, pos = _read_varint(payload, pos)
    n_literals, pos = _read_varint(payload, pos)
    lit_syms, pos = _decode_symbols(payload, pos, n_literals, 256)
    ll_syms, pos = _decode_symbols(payload, pos, n_tokens, _BUCKET_ALPHABET)
    ml_syms, pos = _decode_symbols(payload, pos, n_tokens, _BUCKET_ALPHABET)
    n_offsets = sum(1 for sym in ml_syms if sym != 0)
    of_syms, pos = _decode_symbols(payload, pos, n_offsets, _BUCKET_ALPHABET)
    extras = BitReader(payload[pos:])

    literals = bytes(lit_syms)
    out = bytearray(prefix)
    lit_pos = 0
    of_index = 0
    for i in range(n_tokens):
        lit_len = _read_value(ll_syms[i], extras)
        out += literals[lit_pos : lit_pos + lit_len]
        lit_pos += lit_len
        match_len = _read_value(ml_syms[i], extras)
        if match_len:
            distance = _read_value(of_syms[of_index], extras)
            of_index += 1
            start = len(out) - distance
            for j in range(match_len):
                out.append(out[start + j])
    assert len(out) - len(prefix) == original_size
    return bytes(out[len(prefix):])


def _read_extended(payload: bytes, pos: int, value: int):
    while True:
        byte = payload[pos]
        pos += 1
        value += byte
        if byte != 255:
            return value, pos


def lz4_decompress(payload: bytes) -> bytes:
    """The LZ4 block format, one copied byte at a time."""
    out = bytearray()
    pos = 0
    n = len(payload)
    while pos < n:
        token_byte = payload[pos]
        pos += 1
        lit_len = token_byte >> 4
        if lit_len == 15:
            lit_len, pos = _read_extended(payload, pos, lit_len)
        if pos + lit_len > n:
            raise CorruptionError("lz4: literal run overflows payload")
        out += payload[pos : pos + lit_len]
        pos += lit_len
        if pos == n:
            break  # final, literal-only sequence
        distance = payload[pos] | (payload[pos + 1] << 8)
        pos += 2
        match_len = token_byte & 0x0F
        if match_len == 15:
            match_len, pos = _read_extended(payload, pos, match_len)
        match_len += MIN_MATCH
        start = len(out) - distance
        for i in range(match_len):
            out.append(out[start + i])
    return bytes(out)
