"""WAL fault injection for tests: damage records the way a crash or bit
rot would, below the log's public append/replay surface."""

from repro.common.errors import WALError


def corrupt_record(wal, index):
    """Flip the last byte of record ``index``."""
    encoded = bytearray(wal._records[index])
    encoded[-1] ^= 0xFF
    wal._records[index] = bytes(encoded)


def tear_tail(wal, drop_bytes=1):
    """Cut ``drop_bytes`` off the final record, as a crash mid-append
    would (replay must ignore the torn tail)."""
    if not wal._records:
        raise WALError("cannot tear an empty WAL")
    tail = wal._records[-1]
    wal._records[-1] = tail[: max(0, len(tail) - drop_bytes)]
