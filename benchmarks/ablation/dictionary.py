"""Table-level shared compression dictionaries (§6, "Related Directions").

Pages of one table share schema-level structure — column separators,
repeated field names, common value prefixes — but a per-page compressor
rediscovers it from scratch on every page and pays per-page metadata
overhead for it.  The paper's first suggested improvement is a shared
dictionary per table; this module implements a simple frequency-based
builder plus a per-table manager that plugs into the zstd-like codec's
dictionary mode.

The builder scores fixed-size shingles across sample pages and packs the
most frequent ones (deduplicated) into the dictionary, most-common last —
the layout dictionary matchers prefer, since closer bytes get shorter
match distances.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from repro.compression.zstd import ZstdCodec

#: Shingle width used for frequency mining.
_SHINGLE = 16


def build_dictionary(samples: Sequence[bytes], size: int = 4096) -> bytes:
    """Build a shared dictionary of ``size`` bytes from sample pages."""
    if size <= 0:
        raise ValueError("dictionary size must be positive")
    counts: Counter = Counter()
    for sample in samples:
        for offset in range(0, max(len(sample) - _SHINGLE, 0), _SHINGLE):
            counts[sample[offset : offset + _SHINGLE]] += 1
    if not counts:
        return b""
    # Keep shingles seen at least twice, rarest first (most frequent land
    # at the dictionary's end, nearest to the data window).
    useful = [s for s, c in counts.most_common() if c >= 2]
    useful.reverse()
    out = bytearray()
    for shingle in useful:
        out += shingle
    return bytes(out[-size:])


class DictionaryManager:
    """Per-table dictionaries with lazy training."""

    def __init__(
        self,
        codec: ZstdCodec = None,
        dict_size: int = 4096,
        min_samples: int = 4,
    ) -> None:
        self._codec = codec if codec is not None else ZstdCodec()
        self.dict_size = dict_size
        self.min_samples = min_samples
        self._samples: Dict[str, List[bytes]] = {}
        self._dicts: Dict[str, bytes] = {}

    def observe(self, table: str, page: bytes) -> None:
        """Feed a sample page; trains the dictionary once enough arrive."""
        if table in self._dicts:
            return
        samples = self._samples.setdefault(table, [])
        samples.append(page)
        if len(samples) >= self.min_samples:
            self._dicts[table] = build_dictionary(samples, self.dict_size)
            del self._samples[table]

    def dictionary_for(self, table: str) -> bytes:
        return self._dicts.get(table, b"")

    def has_dictionary(self, table: str) -> bool:
        return bool(self._dicts.get(table))

    def compress(self, table: str, page: bytes) -> bytes:
        return self._codec.compress(page, dictionary=self.dictionary_for(table))

    def decompress(self, table: str, payload: bytes) -> bytes:
        return self._codec.decompress(
            payload, dictionary=self.dictionary_for(table)
        )
