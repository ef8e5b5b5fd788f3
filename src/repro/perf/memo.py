"""Content-addressed codec memo cache.

The software codecs (:mod:`repro.compression`) are pure functions of their
input bytes, so any call whose input content has been seen before can be
answered from a recorded result instead of re-running the pure-Python
compressor (3–6 ms per 16 KiB page on one core).  The big repeat sources
in this system are structural, not accidental:

* every replica consolidates the *same* page image from the same redo
  records (a 3-replica checkpoint compresses each image three times);
* repair, resync, and scrubber re-reads materialize payloads the leader
  already produced;
* live migration copies pages whose images the source volume compressed
  moments earlier;
* cluster row pages tile their filler from the row value, so 4 KiB
  device blocks repeat across pages.

Keys are BLAKE2b-128 digests of the input content plus the codec name and
operation kind — the cache never compares stale pointers, only content.
Decompression entries are only written/read for payloads whose CRC has
been verified by the caller (``verified=True``): a bit-flipped payload
hashes to a different key and therefore *cannot* be served from the memo
(see ``tests/chaos/test_memo_chaos.py``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Tuple

#: Operation kinds (part of the cache key).
KIND_COMPRESS = "c"
KIND_DECOMPRESS = "d"
KIND_HW_LEN = "h"

_DIGEST_SIZE = 16


def content_key(kind: str, codec: str, data) -> Tuple[str, str, bytes]:
    """Cache key for one codec call: ``(kind, codec, blake2b(content))``.

    ``data`` may be ``bytes``, ``bytearray``, or ``memoryview`` — hashing
    reads the buffer without copying it.
    """
    digest = hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()
    return (kind, codec, digest)


class CodecMemoCache:
    """Bounded LRU of codec results, charged by stored payload bytes.

    Values are ``(payload_bytes, crc32)`` tuples for compression entries
    (the CRC rides along so the write path can skip recomputing it),
    plain ``bytes`` for decompression entries, and ``int`` compressed
    lengths for the hardware-gzip sizing memo (charged a nominal size).
    """

    #: Charged bytes for an int-valued entry (hw length memo).
    _INT_CHARGE = 64

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._items: "OrderedDict[tuple, Tuple[object, int]]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    # -- accessors ---------------------------------------------------------

    def get(self, key: tuple):
        entry = self._items.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._items.move_to_end(key)
        self.hits += 1
        return entry[0]

    def __len__(self) -> int:
        return len(self._items)

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- mutation ----------------------------------------------------------

    def put(self, key: tuple, value) -> None:
        size = self._charge(value)
        if size > self.capacity_bytes:
            return  # never admit something larger than the whole cache
        old = self._items.pop(key, None)
        if old is not None:
            self._used -= old[1]
        self._items[key] = (value, size)
        self._used += size
        self.insertions += 1
        while self._used > self.capacity_bytes:
            _, (_, victim_size) = self._items.popitem(last=False)
            self._used -= victim_size
            self.evictions += 1

    @classmethod
    def _charge(cls, value) -> int:
        if isinstance(value, int):
            return cls._INT_CHARGE
        if isinstance(value, tuple):  # (payload, crc)
            return len(value[0]) + cls._INT_CHARGE
        return len(value)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "insertions": self.insertions,
            "evictions": self.evictions,
            "entries": len(self._items),
            "used_bytes": self._used,
            "capacity_bytes": self.capacity_bytes,
        }


def memo_key_compress(codec: str, data) -> tuple:
    return content_key(KIND_COMPRESS, codec, data)


def memo_key_decompress(codec: str, payload) -> tuple:
    return content_key(KIND_DECOMPRESS, codec, payload)


def memo_key_hw_len(block) -> tuple:
    return content_key(KIND_HW_LEN, "hw-gzip", block)
