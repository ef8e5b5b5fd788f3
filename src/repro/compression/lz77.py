"""Hash-chain LZ77 match finder shared by the LZ4 and zstd-like codecs.

The finder emits a token stream: runs of literals interleaved with
back-references ``(length, distance)``.  Codecs differ in how they
serialize the tokens (LZ4: raw byte layout, zstd: entropy-coded) and in
the finder parameters they use (chain depth, lazy matching).

**The invariant the speed rests on.**  A hash-chain matcher links every
position to the previous position whose next four bytes hash alike.
This one indexes *every* position ``<= n - MIN_MATCH`` in increasing
order, whatever the parse does — literals, matched bytes and the
dictionary prefix alike — so when a match is sought at ``at`` the chain
holds exactly the earlier positions with ``at``'s hash, nearest first.
That makes the chains a function of the buffer alone, not of the parse:
:func:`chain_index` builds them once in a vectorised pass, and the
greedy depth-16 parse (lz4) and the lazy depth-64 parse (zstd) that
Algorithm 1 runs on every first-written page walk the same array.

**The probe mask.**  The same pass marks the positions where a probe
can find a match at all: those whose first chain candidate agrees on
all four bytes, or that have a second candidate.  Anywhere else the one
candidate there is shares only a hash, so no walk finds four equal
bytes, floor 0 or above.  The mask is therefore a superset of the
positions where a probe succeeds, and both parses jump from one marked
position to the next with ``bytes.find`` instead of stepping byte by
byte — on an incompressible page, past most of the page.  The same
invariant rules out lazy probes: one that must beat a match of ``L``
bytes repeats ``L + 1`` bytes, so every four-byte window of them
occurred before, and a 0 in the mask over those windows means no
candidate at any depth can win (on dataset pages, 40–70 % of zstd's lazy
probes end there without a walk).

**Byte-identity contract.**  The token streams are bit for bit those of
the straightforward matcher (index as you go, compare byte by byte);
``tests/compression/golden/codec_digests.json`` was frozen from that
code, and ``test_golden_bytes.py`` also carries a naive tokenizer for a
differential test.  A faster kernel must keep both green.

**One walk for two parses.**  Algorithm 1 parses every first-written
page twice, lz4 (greedy, depth 16) first, then zstd (lazy, depth 64).
A walk at ``at`` depends only on the buffer, ``prev``, the window and
the length cap ``min(max_match, n - at)``; with one window and
``len(data) <= 65535`` the two caps agree (65 536 vs 65 535 differ only
past that), so lz4's walk *is* the first 16 steps of zstd's.  A greedy
parse asked to (``record=True``, which only Algorithm 1's evaluation
passes, and only when zstd's parse follows in this process) therefore
records, for each position it probes, where its walk stopped —
``(best_len, best_dist, next candidate)``, the candidate :data:`_END`
when the walk hit the cap — in the memo slot, keyed by buffer,
``(window, effective cap)`` and depth.  A deeper parse of the
same key resumes a recorded floor-0 probe from that state, walks only
the remaining ``depth - 16`` candidates, and drops the spent record
from the slot.  Its lazy ``floor > 0`` probes and any position lz4 never
probed walk from the start.  Another window or cap (zstd on a buffer
over 65 535 bytes), a parse no deeper than the record, and a dictionary
parse (``dictionary + page`` is a new object) walk cold.  Once the
evaluation is done, :func:`forget` empties the slot, so the page, its
chain list (~600 KiB of ints for 16 KiB) and any walks left in it do not
live on until the next page.

**Threads.**  Codec instances, and with them the one-slot memo, are
shared by every thread that compresses — the ``serve_in_thread``
servers among them.  The slot is a single tuple, read once into a local
and replaced by one assignment; the ``prev`` list inside it is never
written after it is built.  A race costs a rebuilt index, never a wrong
one.  A walk record is published empty and filled as its parse goes,
one whole :data:`Walk` per dictionary store, so a racing reader of a
half-filled record finds either a whole walk or none, and where it
finds none it walks from the start.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

MIN_MATCH = 4
_HASH_MULT = 2654435761
_HASH_BITS = 16
#: First chunk of the galloping match extension; doubles per equal chunk.
_FIRST_CHUNK = 16

#: One LZ77 step ``(lit_start, lit_len, match_len, distance)``:
#: ``lit_len`` literals starting at ``lit_start`` in the source, followed
#: by a back-reference of ``match_len`` bytes at ``distance``
#: (``match_len == 0`` marks the trailing literal-only token).
Token = Tuple[int, int, int, int]

#: Where one chain walk stopped, ``(best_len, best_dist, next candidate)``,
#: packed as ``best_len | best_dist << 17 | (candidate + 1) << 34`` (a
#: length or distance fits 17 bits).  An int, not a tuple: a GC-tracked
#: tuple per probe shifts collections enough to raise peak RSS.
Walk = int
#: The next candidate of a walk that reached the length cap: nothing
#: later can be strictly longer.  (-1 is before every window.)
_END = -1

#: The last buffer indexed, its chain array and probe mask, and the
#: floor-0 chain walks the last greedy parse of it recorded, with that
#: parse's ``(window, cap)`` key and depth, until a deeper parse spends
#: them: lz4 then zstd compress the same page object during Algorithm
#: 1's evaluation.
_EMPTY: Tuple[
    bytes, List[int], bytes, Tuple[int, int], int, Dict[int, Walk]
] = (b"", [], b"", (0, 0), 0, {})
_last_index = _EMPTY


def forget(data: bytes) -> None:
    """Empty the slot if it holds ``data`` (a slot another thread has
    filled meanwhile is left alone, or costs that thread a rebuild)."""
    global _last_index
    if _last_index[0] is data:
        _last_index = _EMPTY


def chain_index(data: bytes) -> Tuple[List[int], bytes]:
    """``(prev, mask)`` for every ``p <= len(data) - 4``: ``prev[p]`` is
    the nearest position before ``p`` whose four bytes hash like
    ``p``'s (-1 if none), and ``mask[p]`` is 1 where a probe can find a
    match (see the module docstring), else 0."""
    global _last_index
    slot = _last_index
    if type(data) is bytes and data is slot[0]:
        return slot[1], slot[2]
    count = len(data) - MIN_MATCH + 1
    if count <= 0:
        return [], b""
    # Overlapping little-endian four-byte windows, one per position.
    keys = np.ndarray((count,), dtype="<u4", buffer=data, strides=(1,))
    # uint32 arithmetic wraps, which is the ``& 0xFFFFFFFF`` of the hash.
    hashes = (keys * np.uint32(_HASH_MULT)) >> np.uint32(32 - _HASH_BITS)
    # A stable sort groups equal hashes with positions still ascending,
    # so each one's predecessor in its group is its chain link.
    order = np.argsort(hashes.astype(np.uint16), kind="stable")
    grouped = hashes[order]
    linked = grouped[1:] == grouped[:-1]
    links = np.full(count, -1, dtype=np.int64)
    links[order[1:][linked]] = order[:-1][linked]
    # Position 0 has no predecessor, so a missing link reads -1 there.
    first = np.maximum(links, 0)
    mask = (
        (links >= 0) & ((keys[first] == keys) | (links[first] >= 0))
    ).tobytes()
    prev = links.tolist()
    if type(data) is bytes:
        _last_index = (data, prev, mask, (0, 0), 0, {})
    return prev, mask


class MatchFinder:
    """Greedy (optionally lazy) hash-chain matcher.

    Parameters
    ----------
    window:
        Maximum back-reference distance.
    max_chain:
        How many chain entries to inspect per position; higher finds better
        matches at more CPU cost (this is the codec "level" knob).
    lazy:
        When True, defer emitting a match by one byte if the next position
        has a strictly longer one (zstd-style; LZ4 is greedy).
    max_match:
        Cap on the match length, at most 65 536 (the LZ4 serializer has no
        cap; keeping one bounds worst-case encode time, and a recorded
        :data:`Walk` packs the length in 17 bits).
    """

    def __init__(
        self,
        window: int = 65535,
        max_chain: int = 16,
        lazy: bool = False,
        max_match: int = 1 << 16,
    ) -> None:
        if window <= 0 or window > 65535:
            raise ValueError(f"window must be in [1, 65535], got {window}")
        if max_chain < 1:
            raise ValueError(f"max_chain must be at least 1, got {max_chain}")
        if not MIN_MATCH <= max_match <= 1 << 16:
            raise ValueError(
                f"max_match must be in [{MIN_MATCH}, 65536], got {max_match}"
            )
        self.window = window
        self.max_chain = max_chain
        self.lazy = lazy
        self.max_match = max_match

    def tokenize(
        self, data: bytes, start: int = 0, record: bool = False
    ) -> List[Token]:
        """Produce the token stream covering ``data[start:]``.

        ``start > 0`` enables dictionary compression: matches may
        reference the prefix ``data[:start]`` but no tokens are emitted
        for it — the decoder primes its output with the same prefix.
        ``record`` keeps a greedy parse's chain walks in the memo slot
        for a deeper parse of the same buffer to resume (see the module
        docstring); nothing else reads them.
        """
        n = len(data)
        if n - start < MIN_MATCH + 1:
            return [(start, n - start, 0, 0)]

        global _last_index
        prev, mask = chain_index(data)
        window = self.window
        depth = range(self.max_chain)
        max_match = self.max_match
        lazy = self.lazy
        # The last MIN_MATCH bytes can never start a match.
        limit = n - MIN_MATCH

        # A shallower walk of the same buffer, window and cap is the
        # start of this parse's walk at the same position: resume it.
        key = (window, max_match if max_match < n else n)
        buffer, _, _, walked_key, walked_depth, walked = _last_index
        recorded = None
        if buffer is data and walked_key == key and walked_depth < self.max_chain:
            rest = range(self.max_chain - walked_depth)
            # Spent: Algorithm 1 runs one deeper parse per page, and a
            # record kept until the next page holds memory (measurably,
            # in ``peak_rss_mb``).
            _last_index = (data, prev, mask, (0, 0), 0, {})
        else:
            walked = {}
            if record and not lazy and type(data) is bytes:
                recorded = {}
                _last_index = (data, prev, mask, key, self.max_chain, recorded)

        def find(at: int, floor: int = 0) -> Tuple[int, int]:
            """Best ``(length, distance)`` at ``at`` among matches longer
            than ``floor`` (0 if none): the first chain candidate with the
            strictly longest match wins."""
            candidate = prev[at]
            oldest = at - window if at > window else 0
            cap = n - at
            if cap > max_match:
                cap = max_match
            if candidate < oldest or floor >= cap:
                return 0, 0
            best_len = floor
            best_dist = 0
            steps = depth
            if walked and not floor:
                walk = walked.get(at)
                if walk is not None:
                    best_len = walk & 0x1FFFF
                    best_dist = walk >> 17 & 0x1FFFF
                    candidate = (walk >> 34) - 1
                    if candidate < oldest:  # the shallower walk was all of it
                        if best_len < MIN_MATCH:
                            return 0, 0
                        return best_len, best_dist
                    steps = rest
            # A longer match must repeat all of ``target`` and then agree
            # on the byte after it, which is checked first.
            target = data[at : at + best_len]
            probe = data[at + best_len]
            for _ in steps:
                if (
                    data[candidate + best_len] == probe
                    and data[candidate : candidate + best_len] == target
                ):
                    # Gallop: compare doubling chunks, and locate the first
                    # differing byte as the top set bit of their XOR.
                    length = best_len + 1
                    step = _FIRST_CHUNK
                    while length < cap:
                        if length + step > cap:
                            step = cap - length
                        diff = int.from_bytes(
                            data[at + length : at + length + step], "big"
                        ) ^ int.from_bytes(
                            data[candidate + length : candidate + length + step],
                            "big",
                        )
                        if diff:
                            length += step - ((diff.bit_length() + 7) >> 3)
                            break
                        length += step
                        step += step
                    best_len = length
                    best_dist = at - candidate
                    if length >= cap:
                        candidate = _END
                        break
                    target = data[at : at + length]
                    probe = data[at + length]
                candidate = prev[candidate]
                if candidate < oldest:
                    break
            if recorded is not None:
                recorded[at] = best_len | best_dist << 17 | (candidate + 1) << 34
            if best_len < MIN_MATCH or best_dist == 0:
                return 0, 0
            return best_len, best_dist

        tokens: List[Token] = []
        lit_start = start
        pos = start
        while pos <= limit:
            if not mask[pos]:
                pos = mask.find(1, pos)
                if pos < 0:
                    break
            length, dist = find(pos)
            if length == 0:
                pos += 1
                continue
            # Only a strictly longer match one byte on is worth a literal.
            # It repeats ``length + 1`` bytes, so each of their four-byte
            # windows occurred before: a 0 in the mask over them rules it
            # out (and so does a window past ``limit``).
            if (
                lazy
                and pos + length - 2 <= limit
                and mask.find(0, pos + 1, pos + length - 1) < 0
            ):
                next_len, next_dist = find(pos + 1, length)
                if next_len:
                    # Emit this byte as a literal; take the later match.
                    pos += 1
                    length, dist = next_len, next_dist
            tokens.append((lit_start, pos - lit_start, length, dist))
            pos += length
            lit_start = pos

        tokens.append((lit_start, n - lit_start, 0, 0))
        return tokens


def reconstruct(tokens: List[Token], data: bytes) -> bytes:
    """Re-expand a token stream against its own source (testing aid)."""
    out = bytearray()
    for lit_start, lit_len, match_len, distance in tokens:
        out += data[lit_start : lit_start + lit_len]
        if match_len:
            start = len(out) - distance
            if start < 0:
                raise ValueError("distance reaches before stream start")
            for i in range(match_len):
                out.append(out[start + i])
    return bytes(out)
