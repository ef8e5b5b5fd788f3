"""The active wall-clock fast path: one codec memo behind one handle.

A :class:`PerfRuntime` is installed process-wide with :func:`configure`
(or :func:`configure_from_env` for CLI entry points honouring the
``REPRO_PERF`` variable).  The hot paths never ask whether one is
installed: they call the module-level :func:`compress`,
:func:`decompress` and :func:`hw_compressed_len`, which consult the
active memo or — when nothing is configured — run the original inline
codec call.  The memo-or-inline policy therefore lives here and nowhere
else, and the perf layer stays strictly opt-in: tier-1 tests and the
end-to-end benchmark run exactly the code they always ran.

Why process-wide instead of per-volume: the memo cache is *content*-
addressed over pure functions, so sharing it across volumes is not just
safe but the point — a cluster migration compresses page images the
source volume already compressed, and only a shared cache can see that.
Each volume still exports the runtime's counters through its own
:class:`~repro.obs.metrics.MetricsRegistry` via :meth:`PerfRuntime
.bind_metrics` (callback gauges, so snapshots always read live values).

Determinism: nothing here can change a simulated timestamp or an output
byte.  Memo values are recorded outputs of pure codec calls, and
simulated CPU cost is charged from :mod:`repro.compression.cost`
whether or not the codec actually ran.
``tests/perf/test_golden_equivalence.py`` locks this in.
"""

from __future__ import annotations

import os
import zlib
from typing import Optional, Tuple

from repro.common.units import MiB
from repro.perf.memo import (
    CodecMemoCache,
    memo_key_compress,
    memo_key_decompress,
    memo_key_hw_len,
)

#: Default memo capacity when enabled without an explicit size.
DEFAULT_MEMO_BYTES = 64 * MiB


def _get_codec(name: str):
    # Lazy: repro.compression's selector imports this module, so a
    # module-level import here would be circular when perf loads first.
    from repro.compression.base import get_codec

    return get_codec(name)


class PerfRuntime:
    """One configured fast path: the content-addressed codec memo."""

    def __init__(self, memo_capacity_bytes: int = DEFAULT_MEMO_BYTES) -> None:
        #: A zero-capacity memo admits nothing, so every call computes.
        self.memo = CodecMemoCache(memo_capacity_bytes)
        #: Codec calls answered from the memo without running the codec.
        self.codec_calls_saved = 0

    def compress(self, codec_name: str, data) -> Tuple[bytes, int]:
        """``(payload, crc32(payload))`` for one page, memoized."""
        key = memo_key_compress(codec_name, data)
        cached = self.memo.get(key)
        if cached is not None:
            self.codec_calls_saved += 1
            return cached
        payload = _get_codec(codec_name).compress(bytes(data))
        value = (payload, zlib.crc32(payload) & 0xFFFFFFFF)
        self.memo.put(key, value)
        return value

    def decompress(self, codec_name: str, payload, verified: bool = True) -> bytes:
        """Decompress ``payload``; memoized only for *verified* content.

        ``verified`` means the caller checked the payload against its
        stored CRC first.  Unverified payloads (no checksum in the index
        entry) bypass the memo entirely, so damaged bytes can never be
        masked by — or inserted into — the cache; and since keys are
        content digests, a bit-flipped payload could not hit a stale
        entry even if it got here (see tests/chaos/test_memo_chaos.py).
        """
        if not verified:
            return _get_codec(codec_name).decompress(payload)
        key = memo_key_decompress(codec_name, payload)
        cached = self.memo.get(key)
        if cached is not None:
            self.codec_calls_saved += 1
            return cached
        value = _get_codec(codec_name).decompress(payload)
        self.memo.put(key, value)
        return value

    def hw_compressed_len(self, compressor, block) -> int:
        """``len(compressor.compress(block))`` with content memoization.

        The CSD write path only needs the compressed *length* of each
        4 KiB block to charge NAND cost; filler-tiled pages repeat block
        content constantly, so this is a pure-win cache even though the
        transform itself is C-speed zlib.
        """
        key = memo_key_hw_len(block)
        cached = self.memo.get(key)
        if cached is not None:
            self.codec_calls_saved += 1
            return cached
        value = len(compressor.compress(block))
        self.memo.put(key, value)
        return value

    def bind_metrics(self, registry) -> None:
        """Export live counters through a volume's metrics registry.

        Callback gauges read this runtime directly, so the existing JSON
        and Prometheus exporters pick the fast path up with no changes.
        """
        memo = self.memo
        registry.gauge_fn("perf.memo.hits", lambda: memo.hits)
        registry.gauge_fn("perf.memo.misses", lambda: memo.misses)
        registry.gauge_fn("perf.memo.hit_rate", lambda: memo.hit_rate)
        registry.gauge_fn("perf.memo.used_bytes", lambda: memo.used_bytes)
        registry.gauge_fn(
            "perf.codec_calls_saved", lambda: self.codec_calls_saved
        )

    def stats(self) -> dict:
        return {
            "memo": self.memo.stats(),
            "codec_calls_saved": self.codec_calls_saved,
        }


#: The process-wide active runtime (None = fast path off, the original
#: inline codec calls everywhere).
_active: Optional[PerfRuntime] = None


def perf_active() -> Optional[PerfRuntime]:
    return _active


def configure(runtime: Optional[PerfRuntime]) -> Optional[PerfRuntime]:
    """Install ``runtime`` as the process-wide fast path (None clears)."""
    global _active
    _active = runtime
    return runtime


def deactivate() -> None:
    configure(None)


# -- the one memo-or-inline decision ------------------------------------------


def compress(codec_name: str, data) -> Tuple[bytes, int]:
    """``(payload, crc)`` for one buffer through the active memo, else
    inline.  The inline branch leaves the CRC lazy: ``crc == 0`` means
    "not computed", and the write path checksums the payload it keeps."""
    if _active is not None:
        return _active.compress(codec_name, data)
    return _get_codec(codec_name).compress(bytes(data)), 0


def decompress(codec_name: str, payload, verified: bool = True) -> bytes:
    """Decompress through the active memo (verified payloads only), else
    inline."""
    if _active is not None:
        return _active.decompress(codec_name, payload, verified=verified)
    return _get_codec(codec_name).decompress(payload)


def hw_compressed_len(compressor, block) -> int:
    """Compressed length of one device block, memoized when active."""
    if _active is not None:
        return _active.hw_compressed_len(compressor, block)
    return len(compressor.compress(block))


def configure_from_env() -> Optional[PerfRuntime]:
    """CLI hook: honour ``REPRO_PERF`` for opt-in fast-path runs.

    ``REPRO_PERF=0``/unset leaves the fast path off.  ``REPRO_PERF=1``
    enables the memo at its default size; ``REPRO_PERF=memo=16`` sizes it
    (MiB).  Any other key raises, naming the key.
    """
    spec = os.environ.get("REPRO_PERF", "").strip()
    if spec in ("", "0", "off", "false"):
        return perf_active()
    memo_bytes = DEFAULT_MEMO_BYTES
    if spec not in ("1", "on", "true"):
        for part in spec.split(","):
            if not part.strip():
                continue
            name, _, value = part.partition("=")
            if name.strip() != "memo":
                raise ValueError(
                    f"unknown REPRO_PERF key {name.strip()!r} in {spec!r}"
                )
            memo_bytes = int(float(value.strip()) * MiB)
    return configure(PerfRuntime(memo_capacity_bytes=memo_bytes))
