"""Size units and alignment arithmetic.

PolarStore works with a small set of fixed granularities that recur across
the whole stack:

* 16 KiB — the database page size (InnoDB-style).
* 4 KiB  — the LBA / software-compression output granularity.
* 128 KiB — the global allocator extent.
* byte granularity — the physical placement unit inside PolarCSD.
"""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

#: Database page size used by the compute layer (bytes).
DB_PAGE_SIZE = 16 * KiB
#: Logical block size exposed by PolarCSD / the software compression output.
LBA_SIZE = 4 * KiB
#: Extent size handed out by the global allocator.
EXTENT_SIZE = 128 * KiB


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return (value + alignment - 1) // alignment * alignment


def is_aligned(value: int, alignment: int) -> bool:
    """Return True when ``value`` is a multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return value % alignment == 0


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)
