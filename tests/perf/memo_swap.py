"""A test-local swap of the process-wide codec memo."""

import contextlib

from repro.compression import memo


@contextlib.contextmanager
def memo_capacity(capacity_bytes: int):
    """Run the block against a fresh process-wide memo of this size.

    A test-local swap, not a product switch: a zero-capacity cache admits
    nothing, so every codec call under it computes.
    """
    saved = memo._cache
    memo._cache = cache = memo.CodecMemoCache(capacity_bytes)
    try:
        yield cache
    finally:
        memo._cache = saved
