"""Exception hierarchy for the PolarStore reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class AllocationError(ReproError):
    """Space-allocator invariant violated (double free, bad range, ...)."""


class OutOfSpaceError(AllocationError):
    """A device, chunk, or allocator has no free space left."""


class DeviceError(ReproError):
    """A simulated storage device failed an operation."""


class DeviceUnavailableError(DeviceError):
    """The whole device is down (chaos whole-device failure): every I/O
    fails until it recovers, as opposed to one bad block."""


class ChecksumError(ReproError):
    """Stored data failed checksum verification."""


class PageCorruptionError(ChecksumError):
    """One replica's copy of a page is unreadable or fails verification.

    Carries enough forensic context (which node, which page, which LBA
    range, and the detection symptom) for the repair path to rewrite the
    bad copy and for the chaos ledger to attribute the fault kind.
    """

    def __init__(
        self,
        message: str,
        *,
        node: str = "",
        page_no: int = -1,
        lba: int = -1,
        n_blocks: int = 0,
        symptom: str = "checksum_mismatch",
    ) -> None:
        super().__init__(message)
        self.node = node
        self.page_no = page_no
        self.lba = lba
        self.n_blocks = n_blocks
        self.symptom = symptom


class CorruptionError(ReproError):
    """A codec, index or page decoder detected malformed input."""


class DuplicateKeyError(ReproError):
    """An insert found its key already live in the page."""


class WALError(ReproError):
    """Write-ahead log append/replay failure."""


class TornWALError(WALError):
    """A WAL record was cut short mid-append (crash during the write).

    Replay ignores a torn record at the *tail* of the log — the append
    was never acknowledged — but treats the same damage anywhere else as
    corruption of a committed record and raises :class:`WALError`.
    """


class ReplicationError(ReproError):
    """Replication-layer failure (no quorum, a dead leader, a fenced epoch)."""


class SchedulingError(ReproError):
    """Cluster scheduler could not satisfy a placement request."""
