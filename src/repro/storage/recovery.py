"""Crash recovery of a storage node (§3.2.1).

The bitmap allocator and hash-table index live in memory and are logged to
the WAL "exclusively for recovery purposes".  This module rebuilds both
from a WAL replay, re-registers heavy-compression segments, and re-stages
durably-persisted redo whose LSN exceeds each page's ``applied_lsn`` —
everything a node needs to serve reads again after losing its RAM.
Recovery is a replay of the whole log: there are no checkpoint snapshots.

The devices themselves (data + performance) survive the crash: their
contents are the durable state the rebuilt metadata points back into.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.common.errors import WALError
from repro.storage.heavy import SegmentMeta
from repro.storage.index import IndexEntry, PageIndex
from repro.storage.node import STATUS_FROM_ID, StorageNode
from repro.storage.redo import RedoRecord, decode_records
from repro.storage.wal import (
    WALRecordType,
    decode_alloc,
    decode_free,
    decode_index_put,
    decode_index_remove,
    decode_segment,
)


def recover_node(crashed: StorageNode, metrics=None) -> StorageNode:
    """Return a fresh node with state rebuilt from the crashed node's WAL.

    Reuses the crashed node's devices (durable), WAL (lives on the
    performance device), and durable redo blobs.  In-memory structures —
    allocator bitmaps, page index, caches, redo cache — are reconstructed.
    ``metrics`` lets a replicated volume keep the rebuilt node on the
    shared registry; standalone recoveries inherit the crashed node's.
    """
    node = StorageNode(
        crashed.name, crashed.config, crashed.data_device, crashed.perf_device,
        metrics=metrics if metrics is not None else crashed.metrics,
    )
    node.wal = crashed.wal
    node.durable_redo_blobs = list(crashed.durable_redo_blobs)
    # The redo window's blocks and the performance ring they sit on
    # survive on the devices (a data-device block's ALLOC stays in the
    # WAL), so the rebuilt node goes on recycling them.
    node._redo_blocks = deque(crashed._redo_blocks)
    node._perf_cursor = crashed._perf_cursor

    allocations: Dict[int, int] = {}  # start_lba -> n_blocks
    index = PageIndex()
    segments: Dict[int, SegmentMeta] = {}

    for record in node.wal.replay():
        if record.type is WALRecordType.ALLOC:
            lba, n_blocks = decode_alloc(record.payload)
            if lba in allocations:
                raise WALError(f"double ALLOC of LBA {lba} in WAL")
            allocations[lba] = n_blocks
        elif record.type is WALRecordType.FREE:
            lba, n_blocks = decode_free(record.payload)
            allocations.pop(lba, None)
        elif record.type is WALRecordType.INDEX_PUT:
            put = decode_index_put(record.payload)
            status = STATUS_FROM_ID[put.status]
            index.put(
                put.page_no,
                IndexEntry(
                    status,
                    put.algorithm,
                    put.lba,
                    put.n_blocks,
                    put.payload_len,
                    segment_id=put.segment_id or None,
                    page_in_segment=(
                        put.page_in_segment if put.segment_id else None
                    ),
                    applied_lsn=put.applied_lsn,
                    checksum=put.checksum,
                ),
            )
        elif record.type is WALRecordType.INDEX_REMOVE:
            index.remove(decode_index_remove(record.payload))
        elif record.type is WALRecordType.SEGMENT:
            seg = decode_segment(record.payload)
            segments[seg.segment_id] = SegmentMeta(
                seg.segment_id, seg.pieces, seg.compressed_len, seg.page_nos,
                seg.checksum,
            )
        # CHECKPOINT records are empty markers: replay skips them.

    node.space.bitmap.restore(sorted(allocations.items()))
    node.index = index
    _restore_segments(node, index, segments)
    _restage_redo(node, index)
    return node


def _restore_segments(
    node: StorageNode, index: PageIndex, segments: Dict[int, SegmentMeta]
) -> None:
    live_segments = {
        entry.segment_id
        for _, entry in index.items()
        if entry.segment_id is not None
    }
    node.heavy.restore(
        {
            segment_id: meta
            for segment_id, meta in segments.items()
            if segment_id in live_segments
        }
    )


def _restage_redo(node: StorageNode, index: PageIndex) -> None:
    """Re-stage durable redo newer than each page's materialized LSN."""
    pending: Dict[int, List[RedoRecord]] = {}
    for blob in node.durable_redo_blobs:
        for record in decode_records(blob):
            entry = index.get(record.page_no)
            applied = entry.applied_lsn if entry else 0
            if record.lsn > applied:
                pending.setdefault(record.page_no, []).append(record)
    for records in pending.values():
        # Deduplicate by LSN (a batch may have been re-persisted).
        seen = set()
        unique = []
        for record in sorted(records):
            if record.lsn not in seen:
                seen.add(record.lsn)
                unique.append(record)
        node._stage_redo(unique)
