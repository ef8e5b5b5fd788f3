"""Checksums used by the WAL, page format, and device model."""

from __future__ import annotations

import zlib


def crc32(data: bytes, seed: int = 0) -> int:
    """CRC-32 of ``data`` (zlib polynomial), masked to 32 bits."""
    return zlib.crc32(data, seed) & 0xFFFFFFFF

