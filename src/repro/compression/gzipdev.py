"""Model of the PolarCSD in-storage gzip engine.

The paper states PolarCSD implements gzip at compression level 5, chosen for
hardware-acceleration friendliness, processing 4 KB-aligned inputs into
byte-granularity outputs.  gzip *is* DEFLATE (LZ77 + Huffman), so we use
``zlib`` at level 5 as the compression transform — the ratios it produces
are real measurements, not models — and charge latency from the device's
spec instead of measuring Python wall time.
"""

from __future__ import annotations

import zlib

from repro.common.errors import CorruptionError
from repro.compression.base import Compressor, register_codec

#: Compression level the PolarCSD ASIC implements (§3.2.2).
HARDWARE_GZIP_LEVEL = 5


class HardwareGzip(Compressor):
    """The in-storage compression transform (DEFLATE level 5)."""

    name = "hw-gzip"
    #: Not a constructor argument: every engine is the same ASIC, and
    #: ``memo.hw_compressed_len`` keys a block's length on content alone.
    level = HARDWARE_GZIP_LEVEL

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, payload: bytes) -> bytes:
        try:
            return zlib.decompress(payload)
        except zlib.error as exc:
            raise CorruptionError(f"hw-gzip: {exc}") from exc

    def compressed_size(self, data: bytes) -> int:
        """Physical bytes the CSD would store for this 4 KB-aligned input."""
        return len(self.compress(data))


register_codec("hw-gzip", HardwareGzip)
