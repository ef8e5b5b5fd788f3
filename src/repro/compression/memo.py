"""Content-addressed codec memo: how the write path calls a codec.

The software codecs are pure functions of their input bytes, and this
system compresses the same bytes many times over by construction:

* every replica consolidates the *same* page image from the same redo
  records (a 3-replica checkpoint compresses each image three times,
  §3.3.3), and every replica compresses the same 16 KiB redo-log window;
* three PolarCSDs gzip the *same* 4 KiB blocks of a replicated write
  (§3.2.2), and filler-tiled row pages repeat blocks within a page;
* live migration re-writes page images the source volume compressed
  moments earlier (§4.2).

So :func:`compress` and :func:`hw_compressed_len` — the only way the
selector, the storage node and the device model reach a compressor —
answer a call whose input content was seen before from the recorded
result.  Keys are BLAKE2b-128 digests of the content (plus the codec
name), never object identity, so a buffer with one flipped bit is a
different key.  Nothing here can move a simulated timestamp or a stored
byte: values are recorded outputs of pure functions, and simulated CPU
cost is charged from :mod:`repro.compression.cost` whether or not the
codec ran (``tests/perf/test_golden_equivalence.py`` holds the memo to
that against a zero-capacity cache).

One process-wide cache of one fixed size.  Process-wide because only a
shared cache sees a migration target compressing what the source
already did; :data:`MEMO_CAPACITY_BYTES` because the hit rates of the
three pinned scenarios are flat from 64 MiB down to 2 MiB and fall off
below it, while the resident-set cost on a workload of distinct pages
(no hits at all) grows with the size.  A lock makes :meth:`get` /
:meth:`put` safe to share between server threads; the codec call itself
runs outside it, so two threads may both compute the same miss.

Reads are not memoized: no layer below the buffer pool caches
decompressed pages, because a cache would hide the decompression cost
that a read of a stored page is meant to pay.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from repro.common.units import MiB
from repro.compression.base import get_codec

#: Size of the process-wide cache (charged bytes, see ``_charge``).
MEMO_CAPACITY_BYTES = 2 * MiB

_HW_LEN = "hw-gzip.len"


def content_key(kind: str, data) -> tuple:
    """``(kind, blake2b(content))``; ``kind`` is a codec name or the
    hardware-length tag.  ``data`` may be ``bytes``, ``bytearray`` or a
    ``memoryview`` — hashing reads the buffer without copying it."""
    return (kind, hashlib.blake2b(data, digest_size=16).digest())


class CodecMemoCache:
    """Bounded LRU of codec results: compressed payloads (``bytes``) and
    hardware-gzip lengths (``int``)."""

    #: Charged per entry on top of a payload's length: the key, the LRU
    #: node and the value object measure ~270 bytes, which is all an
    #: ``int`` entry costs.
    _ENTRY_CHARGE = 256

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity {capacity_bytes}")
        #: A zero-capacity cache admits nothing, so every call computes.
        self.capacity_bytes = capacity_bytes
        self._items: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple):
        with self._lock:
            entry = self._items.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._items.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: tuple, value) -> None:
        size = self._charge(value)
        if size > self.capacity_bytes:
            return  # never admit something larger than the whole cache
        with self._lock:
            old = self._items.pop(key, None)
            if old is not None:
                self._used -= old[1]
            while self._used + size > self.capacity_bytes:
                _, (_, victim_size) = self._items.popitem(last=False)
                self._used -= victim_size
            self._items[key] = (value, size)
            self._used += size

    @classmethod
    def _charge(cls, value) -> int:
        if isinstance(value, int):
            return cls._ENTRY_CHARGE
        return len(value) + cls._ENTRY_CHARGE

    def __len__(self) -> int:
        return len(self._items)

    @property
    def used_bytes(self) -> int:
        return self._used


_cache = CodecMemoCache(MEMO_CAPACITY_BYTES)


def compress(codec_name: str, data) -> bytes:
    """``get_codec(codec_name).compress(data)``, by content."""
    key = content_key(codec_name, data)
    payload = _cache.get(key)
    if payload is None:
        payload = get_codec(codec_name).compress(bytes(data))
        _cache.put(key, payload)
    return payload


def hw_compressed_len(block) -> int:
    """Bytes the PolarCSD gzip engine stores for one device block.

    The device model only needs the *length* to charge NAND cost, so
    that is what is recorded.  Every engine is level 5 (§3.2.2), which
    is why the block alone is the key.
    """
    key = content_key(_HW_LEN, block)
    length = _cache.get(key)
    if length is None:
        length = len(get_codec("hw-gzip").compress(block))
        _cache.put(key, length)
    return length
