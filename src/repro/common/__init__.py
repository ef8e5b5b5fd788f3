"""Foundational utilities shared by every PolarStore subsystem.

This package deliberately has no dependencies on the rest of ``repro`` so
that every other subpackage can import it freely.
"""

from repro.common.clock import SimClock
from repro.common.errors import (
    AllocationError,
    ChecksumError,
    CorruptionError,
    DeviceError,
    OutOfSpaceError,
    ReproError,
)
from repro.common.units import (
    GiB,
    KiB,
    MiB,
    TiB,
    align_up,
    ceil_div,
    is_aligned,
)

__all__ = [
    "SimClock",
    "ReproError",
    "AllocationError",
    "OutOfSpaceError",
    "DeviceError",
    "ChecksumError",
    "CorruptionError",
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "align_up",
    "is_aligned",
    "ceil_div",
]
