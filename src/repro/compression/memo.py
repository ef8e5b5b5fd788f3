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

So :func:`plan`, :func:`compress` and :func:`hw_compressed_len` — the
only way the selector, the storage node and the device model reach a
compressor — answer a call whose input content was seen before from the
recorded result.  What is recorded per codec and content is the
compressed size when the codec ran, replaced by the payload once that
was packed: Algorithm 1 sizes both codecs and packs only what is stored,
so its evaluation leaves both sizes and the winner's payload, and the
replicas that consolidate the same image run no codec at all.  Keys are
BLAKE2b-128 digests of the content (plus the codec name), never object
identity, so a buffer with one flipped bit is a different key.  Nothing
here can move a simulated timestamp or a stored byte: values are
recorded outputs of pure functions, and simulated CPU cost is charged
from :mod:`repro.compression.cost` whether or not the codec ran
(``tests/perf/test_golden_equivalence.py`` holds the memo to that
against a zero-capacity cache).

One process-wide cache of one fixed size.  Process-wide because only a
shared cache sees a migration target compressing what the source
already did; :data:`MEMO_CAPACITY_BYTES` because the hit rates of the
three pinned scenarios are flat from 64 MiB down to 2 MiB and fall off
below it, while the resident-set cost on a workload of distinct pages
(no hits at all) grows with the size.  A lock makes :meth:`get` /
:meth:`put` safe to share between server threads; the codec call itself
runs outside it, so two threads may both compute the same miss.

Algorithm 1's evaluation is :func:`plan_both`, the one call that may
hand zstd's parse to the helper process (:mod:`repro.compression.helper`)
and otherwise lets zstd's parse resume lz4's chain walks.  Every call
here that runs a codec then empties :mod:`repro.compression.lz77`'s
one-slot memo of its buffer, so no page's chain list outlives the call.

Reads are not memoized: no layer below the buffer pool caches
decompressed pages, because a cache would hide the decompression cost
that a read of a stored page is meant to pay.  A read looks up the codec
its index entry names with :func:`get_codec`, in :data:`CODECS`, the
one table of the shared codec instances.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.common.units import MiB
from repro.compression import lz77
from repro.compression.base import Compressor, Plan
from repro.compression.gzipdev import HardwareGzip
from repro.compression.helper import ZstdHelper
from repro.compression.lz4 import LZ4Codec
from repro.compression.zstd import ZstdCodec

#: The shared codec instances, by the name an index entry records.
CODECS: Dict[str, Compressor] = {
    codec.name: codec for codec in (LZ4Codec(), ZstdCodec(), HardwareGzip())
}

#: Size of the process-wide cache (charged bytes, see ``_charge``).
MEMO_CAPACITY_BYTES = 2 * MiB

_HW_LEN = "hw-gzip.len"


def get_codec(name: str) -> Compressor:
    """The shared instance of the codec called ``name``."""
    try:
        return CODECS[name]
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; known: {sorted(CODECS)}") from None


def content_key(kind: str, data) -> tuple:
    """``(kind, blake2b(content))``; ``kind`` is a codec name or the
    hardware-length tag.  ``data`` may be ``bytes``, ``bytearray`` or a
    ``memoryview`` — hashing reads the buffer without copying it."""
    return (kind, hashlib.blake2b(data, digest_size=16).digest())


class CodecMemoCache:
    """Bounded LRU of codec results: compressed payloads (``bytes``),
    compressed sizes of payloads never packed and hardware-gzip lengths
    (``int``)."""

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
#: This process's end of the zstd helper (started at the first
#: :func:`plan_both` that may use it).
_HELPER = ZstdHelper()


def compress(codec_name: str, data) -> bytes:
    """``get_codec(codec_name).compress(data)``, by content."""
    key = content_key(codec_name, data)
    payload = _cache.get(key)
    if type(payload) is not bytes:  # unseen, or only its size recorded
        buf = bytes(data)
        payload = get_codec(codec_name).compress(buf)
        lz77.forget(buf)
        _cache.put(key, payload)
    return payload


def plan(codec_name: str, data) -> Plan:
    """``get_codec(codec_name).plan(data)``, by content.  The size is
    recorded when the codec runs and the payload when it is packed, so a
    later call for the same content runs no codec for the size, and none
    for the payload once that was packed."""
    key = content_key(codec_name, data)
    recalled = _recalled(codec_name, data, _cache.get(key))
    if recalled is not None:
        return recalled
    buf = bytes(data)
    planned = get_codec(codec_name).plan(buf)
    lz77.forget(buf)
    return _recording(key, planned.size, planned.pack)


def plan_both(data) -> Tuple[Plan, Plan]:
    """``(plan("lz4", data), plan("zstd", data))``: Algorithm 1's
    evaluation, recorded as :func:`plan` records it.

    Where the zstd helper process serves this process
    (:mod:`repro.compression.helper`), zstd's parse runs there while
    lz4's runs here, and zstd's payload is packed there if it is stored.
    Otherwise both run here: lz4's parse first, recording its chain
    walks, then zstd's, resuming them (:mod:`repro.compression.lz77`).
    Either way nothing of the page is left in lz77's slot afterwards."""
    lz4_key = content_key("lz4", data)
    zstd_key = content_key("zstd", data)
    lz4 = _recalled("lz4", data, _cache.get(lz4_key))
    zstd = _recalled("zstd", data, _cache.get(zstd_key))
    buf = bytes(data)
    digest = zstd_key[1]
    try:
        if zstd is None and _HELPER.begin(digest, buf):
            try:
                if lz4 is None:
                    planned = get_codec("lz4").plan(buf)
                    if not _HELPER.replied():
                        # This process would only wait: lay lz4's block
                        # out now (recorded only if it is stored).
                        payload = planned.pack()
                        planned = Plan(planned.size, lambda: payload)
                    lz4 = _recording(lz4_key, planned.size, planned.pack)
            finally:
                size = _HELPER.finish(digest)
            if size is not None:
                zstd = _recording(
                    zstd_key, size, lambda: _packed_zstd(digest, size, buf)
                )
        if lz4 is None:
            planned = get_codec("lz4").plan(buf, record_walks=zstd is None)
            lz4 = _recording(lz4_key, planned.size, planned.pack)
        if zstd is None:
            planned = get_codec("zstd").plan(buf)
            zstd = _recording(zstd_key, planned.size, planned.pack)
    finally:
        lz77.forget(buf)
    return lz4, zstd


def _recalled(codec_name: str, data, known) -> Optional[Plan]:
    """The plan a recorded payload or size gives (None if neither)."""
    if type(known) is bytes:
        return Plan(len(known), lambda: known)
    if known is not None:
        return Plan(known, lambda: compress(codec_name, data))
    return None


def _recording(key: tuple, size: int, pack: Callable[[], bytes]) -> Plan:
    """A plan just computed: its size recorded now, its payload once
    ``pack`` built it."""
    _cache.put(key, size)

    def recorded_pack() -> bytes:
        payload = pack()
        _cache.put(key, payload)
        return payload

    return Plan(size, recorded_pack)


def _packed_zstd(digest: bytes, size: int, buf: bytes) -> bytes:
    """zstd's payload of ``buf``: packed by the helper, which holds the
    plan, unless another page replaced it there (then here, cold)."""
    payload = _HELPER.pack(digest, size)
    if payload is None:
        payload = get_codec("zstd").compress(buf)
        lz77.forget(buf)
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
