"""The redo byte stream of a fixed B+tree script is frozen.

Redo records are the exact ``(offset, data)`` ranges ``Page._write``
collects, so any change to what a page method writes, or in which order,
moves ``write_amp``, the WAL and every storage fingerprint.  The golden
was generated before the page's decoded view existed; rewrite it with
``PYTHONPATH=src:. python tests/db/test_redo_golden.py`` only for a
deliberate change of the page format.
"""

import hashlib
import json
import pathlib
import random
import struct

from repro.db.bufferpool import BufferPool, OpContext
from repro.db.btree import BPlusTree

GOLDEN = pathlib.Path(__file__).parent / "golden" / "redo_stream.json"
N_OPS = 400


def redo_stream():
    """Run the script; returns the stream's summary (sha256 included)."""
    rng = random.Random("redo-golden")
    pool = BufferPool(64, store=None)  # holds every page: never reads
    page_nos = iter(range(1, 1 << 16))
    tree = BPlusTree(pool, lambda: next(page_nos))
    digest = hashlib.sha256()
    live, n_records, n_bytes = {}, 0, 0
    for lsn in range(1, N_OPS + 1):
        ctx = OpContext(0.0)
        roll = rng.random()
        if roll < 0.55 or len(live) < 8:
            key = rng.randrange(1 << 20)
            while key in live:
                key = rng.randrange(1 << 20)
            # ~150 B rows: the 220 inserts split the root leaf twice.
            live[key] = rng.randbytes(rng.randrange(100, 200))
            tree.insert(ctx, key, live[key], lsn)
        elif roll < 0.85:
            key = rng.choice(sorted(live))
            old = len(live[key])
            # Half shrink in place, half grow and relocate.
            size = rng.randrange(1, old + 1) if roll < 0.70 else old + 40
            live[key] = rng.randbytes(size)
            assert tree.update(ctx, key, live[key], lsn)
        else:
            key = rng.choice(sorted(live))
            del live[key]
            assert tree.delete(ctx, key, lsn)
        for page_no, page in sorted(pool.drain_touched().items()):
            for offset, data in page.drain_mods():
                digest.update(struct.pack("<QHI", page_no, offset, len(data)))
                digest.update(data)
                n_records += 1
                n_bytes += len(data)
    assert tree.range_scan(OpContext(0.0), 0, 1 << 20) == sorted(live.items())
    return {
        "ops": N_OPS,
        "records": n_records,
        "bytes": n_bytes,
        "height": tree.height,
        "pages": next(page_nos) - 1,
        "sha256": digest.hexdigest(),
    }


def test_redo_stream_matches_golden():
    summary = redo_stream()
    assert summary["pages"] >= 4, "the script must split at least twice"
    assert summary == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(redo_stream(), indent=2) + "\n")
    print(GOLDEN.read_text())
