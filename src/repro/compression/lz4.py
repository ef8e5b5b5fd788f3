"""Pure-Python LZ4 block format codec.

Implements the LZ4 block specification (token byte, extended lengths,
little-endian 16-bit offsets) with a greedy hash-chain matcher.  The format
rules that matter for interoperability are honoured:

* minimum match length 4;
* the last 5 bytes of a block are always literals;
* a match must not start within the last 12 bytes;
* the final sequence carries literals only.

Crucially for this paper, LZ4 performs **no entropy coding** — its output is
a byte-aligned splice of literals and copy commands — which is why the
PolarCSD hardware gzip stage can compress LZ4 output substantially further
(Figure 5c).

The decoder copies whole slices: a literal run, a match, or — when a
match overlaps its own output — the ``distance`` bytes before it
repeated to length.  A block carries no size, so a damaged one either
raises ``CorruptionError`` or decodes to at most 255 bytes per payload
byte.
"""

from __future__ import annotations

from repro.common.errors import CorruptionError
from repro.compression.base import Compressor, Plan
from repro.compression.lz77 import MIN_MATCH, MatchFinder, Token

#: Format constants from the LZ4 block spec.
_MFLIMIT = 12  # matches must end this many bytes before the block end
_LAST_LITERALS = 5


def _extended(remaining: int) -> bytes:
    """The length bytes that follow a saturated 4-bit token field."""
    return b"\xff" * (remaining // 255) + bytes((remaining % 255,))


class LZ4Codec(Compressor):
    """LZ4 block compressor/decompressor."""

    name = "lz4"

    def __init__(self) -> None:
        self.finder = MatchFinder(window=65535, max_chain=16, lazy=False)

    # -- compression -----------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        return self.plan(data).pack()

    def plan(self, data: bytes, tokens: "list[Token] | None" = None) -> Plan:
        """The block for ``data``, sized from its tokens before any byte
        of it is laid out.  ``tokens`` are :attr:`finder`'s tokens of
        ``data`` where Algorithm 1's evaluation parsed it already."""
        if tokens is None:
            tokens = self.finder.tokenize(data)
        tokens = self._legalize(tokens, len(data))
        size = 0
        for _, lit_len, match_len, _ in tokens:
            # Token byte, literals, extended literal length; then offset
            # and extended match length.
            size += 1 + lit_len
            if lit_len >= 15:
                size += (lit_len - 15) // 255 + 1
            if match_len:
                size += 2
                if match_len >= 15 + MIN_MATCH:
                    size += (match_len - 15 - MIN_MATCH) // 255 + 1
        return Plan(size, lambda: self._emit(data, tokens))

    @staticmethod
    def _emit(data: bytes, tokens: "list[Token]") -> bytes:
        out = bytearray()
        append = out.append
        for lit_start, lit_len, match_len, distance in tokens:
            match_code = match_len - MIN_MATCH if match_len else 0
            append(
                (lit_len if lit_len < 15 else 15) << 4
                | (match_code if match_code < 15 else 15)
            )
            if lit_len >= 15:
                out += _extended(lit_len - 15)
            out += data[lit_start : lit_start + lit_len]
            if match_len:
                append(distance & 0xFF)
                append(distance >> 8)
                if match_code >= 15:
                    out += _extended(match_code - 15)
        return bytes(out)

    @staticmethod
    def _legalize(tokens: "list[Token]", n: int) -> "list[Token]":
        """Enforce end-of-block rules by demoting late matches to literals.

        Only sequences whose match runs into the last ``_MFLIMIT`` bytes
        can break a rule, and positions only grow, so everything before
        the first such sequence passes through untouched.
        """
        tail = len(tokens) - 1  # the final token is literal-only
        while tail > 0:
            lit_start, lit_len, match_len, _ = tokens[tail - 1]
            if lit_start + lit_len + match_len <= n - _MFLIMIT:
                break
            tail -= 1
        legal = tokens[:tail]
        pending_lit_start = None
        pending_lit_len = 0
        for lit_start, lit_len, match_len, distance in tokens[tail:]:
            if pending_lit_len:
                # Merge the demoted tail into this token's literal run.
                lit_start = pending_lit_start
                lit_len += pending_lit_len
                pending_lit_start, pending_lit_len = None, 0
            if match_len == 0:
                legal.append((lit_start, lit_len, 0, 0))
                continue
            match_start = lit_start + lit_len
            # Trim the match so it ends at least _LAST_LITERALS bytes before
            # the block end; demote it entirely if trimming leaves it below
            # the minimum length or it starts inside the _MFLIMIT window.
            allowed = min(match_len, (n - _LAST_LITERALS) - match_start)
            if match_start > n - _MFLIMIT or allowed < MIN_MATCH:
                pending_lit_start = lit_start
                pending_lit_len = lit_len + match_len
                continue
            legal.append((lit_start, lit_len, allowed, distance))
            if allowed < match_len:
                pending_lit_start = match_start + allowed
                pending_lit_len = match_len - allowed
        if pending_lit_len or not legal or legal[-1][2] != 0:
            start = pending_lit_start if pending_lit_len else n
            legal.append((start, pending_lit_len, 0, 0))
        return legal

    # -- decompression ---------------------------------------------------

    def decompress(self, payload: bytes) -> bytes:
        out = bytearray()
        size = 0  # len(out)
        pos = 0
        n = len(payload)
        while pos < n:
            token_byte = payload[pos]
            pos += 1
            lit_len = token_byte >> 4
            if lit_len:
                if lit_len == 15:
                    lit_len, pos = self._read_extended(payload, pos, lit_len)
                if pos + lit_len > n:
                    raise CorruptionError("lz4: literal run overflows payload")
                out += payload[pos : pos + lit_len]
                pos += lit_len
                size += lit_len
            if pos == n:
                break  # final, literal-only sequence
            if pos + 2 > n:
                raise CorruptionError("lz4: truncated match offset")
            distance = payload[pos] | (payload[pos + 1] << 8)
            pos += 2
            if distance == 0:
                raise CorruptionError("lz4: zero match offset")
            match_len = token_byte & 0x0F
            if match_len == 15:
                match_len, pos = self._read_extended(payload, pos, match_len)
            match_len += MIN_MATCH
            start = size - distance
            if start < 0:
                raise CorruptionError("lz4: offset before output start")
            if distance >= match_len:
                out += out[start : start + match_len]
            else:
                # The match reaches into its own output: it repeats the
                # ``distance`` bytes before it.
                out += (out[start:] * (match_len // distance + 1))[:match_len]
            size += match_len
        return bytes(out)

    @staticmethod
    def _read_extended(payload: bytes, pos: int, value: int) -> "tuple[int, int]":
        while True:
            if pos >= len(payload):
                raise CorruptionError("lz4: truncated extended length")
            byte = payload[pos]
            pos += 1
            value += byte
            if byte != 255:
                return value, pos
