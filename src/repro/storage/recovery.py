"""Crash recovery of a storage node (§3.2.1).

The bitmap allocator and hash-table index live in memory and are logged to
the WAL "exclusively for recovery purposes".  This module rebuilds both
from a WAL replay, re-registers heavy-compression segments, and re-stages
durably-persisted redo whose LSN exceeds each page's ``applied_lsn`` —
everything a node needs to serve reads again after losing its RAM.

The devices themselves (data + performance) survive the crash: their
contents are the durable state the rebuilt metadata points back into.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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


def take_checkpoint(node: StorageNode) -> int:
    """Snapshot the node's recoverable state into the WAL and truncate.

    After this, recovery replays only the records appended since the
    checkpoint — the standard ARIES-style shortening of restart time.
    Returns the checkpoint's LSN.
    """
    snapshot = _encode_snapshot(node)
    lsn = node.wal.append_checkpoint(snapshot)
    node.wal.truncate_below(lsn)
    return lsn


def _encode_snapshot(node: StorageNode) -> bytes:
    import struct

    out = bytearray()
    allocations = _live_allocations(node)
    out += struct.pack("<I", len(allocations))
    for lba, n_blocks in allocations:
        out += struct.pack("<QI", lba, n_blocks)

    entries = list(node.index.items())
    out += struct.pack("<I", len(entries))
    from repro.storage.node import _STATUS_IDS

    for page_no, entry in entries:
        out += struct.pack(
            "<QQIIBBQQII",
            page_no, entry.lba, entry.n_blocks, entry.payload_len,
            _STATUS_IDS[entry.status],
            node.wal.ALGORITHMS.get(entry.algorithm, 0),
            entry.applied_lsn,
            entry.segment_id or 0,
            entry.page_in_segment or 0,
            entry.checksum,
        )

    segments = [
        node.heavy.get(segment_id)
        for segment_id in sorted(
            {
                e.segment_id
                for _, e in node.index.items()
                if e.segment_id is not None
            }
        )
    ]
    out += struct.pack("<I", len(segments))
    for meta in segments:
        out += struct.pack(
            "<QQIII", meta.segment_id, meta.compressed_len,
            len(meta.pieces), len(meta.page_nos), meta.checksum,
        )
        for lba, blocks in meta.pieces:
            out += struct.pack("<QI", lba, blocks)
        for page_no in meta.page_nos:
            out += struct.pack("<Q", page_no)
    return bytes(out)


def _live_allocations(node: StorageNode) -> List[Tuple[int, int]]:
    """Reconstruct (lba, n_blocks) pairs from the WAL's ALLOC/FREE history
    (the bitmap itself does not remember allocation boundaries)."""
    allocations: Dict[int, int] = {}
    for record in node.wal.replay():
        if record.type is WALRecordType.ALLOC:
            lba, n_blocks = decode_alloc(record.payload)
            allocations[lba] = n_blocks
        elif record.type is WALRecordType.FREE:
            lba, _ = decode_free(record.payload)
            allocations.pop(lba, None)
        elif record.type is WALRecordType.CHECKPOINT and record.payload:
            snap_allocs, _, _ = _decode_snapshot(record.payload)
            allocations = dict(snap_allocs)
    return sorted(allocations.items())


def _decode_snapshot(payload: bytes):
    import struct

    pos = 0
    (n_allocs,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    allocations: List[Tuple[int, int]] = []
    for _ in range(n_allocs):
        lba, n_blocks = struct.unpack_from("<QI", payload, pos)
        pos += struct.calcsize("<QI")
        allocations.append((lba, n_blocks))

    (n_entries,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    entries = []
    for _ in range(n_entries):
        fields = struct.unpack_from("<QQIIBBQQII", payload, pos)
        pos += struct.calcsize("<QQIIBBQQII")
        entries.append(fields)

    (n_segments,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    segments = []
    for _ in range(n_segments):
        segment_id, compressed_len, n_pieces, n_pages, checksum = (
            struct.unpack_from("<QQIII", payload, pos)
        )
        pos += struct.calcsize("<QQIII")
        pieces = []
        for _ in range(n_pieces):
            lba, blocks = struct.unpack_from("<QI", payload, pos)
            pos += struct.calcsize("<QI")
            pieces.append((lba, blocks))
        page_nos = []
        for _ in range(n_pages):
            page_nos.append(struct.unpack_from("<Q", payload, pos)[0])
            pos += 8
        segments.append(
            SegmentMeta(segment_id, tuple(pieces), compressed_len,
                        tuple(page_nos), checksum)
        )
    return allocations, entries, segments


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
        elif record.type is WALRecordType.CHECKPOINT:
            if not record.payload:
                continue
            # Reset to the snapshot; later records replay on top of it.
            snap_allocs, snap_entries, snap_segments = _decode_snapshot(
                record.payload
            )
            allocations = dict(snap_allocs)
            index = PageIndex()
            for fields in snap_entries:
                (page_no, lba, n_blocks, payload_len, status_id, algo_id,
                 applied_lsn, segment_id, page_in_segment, checksum) = fields
                index.put(
                    page_no,
                    IndexEntry(
                        STATUS_FROM_ID[status_id],
                        node.wal.ALGORITHM_NAMES.get(algo_id),
                        lba, n_blocks, payload_len,
                        segment_id=segment_id or None,
                        page_in_segment=(
                            page_in_segment if segment_id else None
                        ),
                        applied_lsn=applied_lsn,
                        checksum=checksum,
                    ),
                )
            segments = {meta.segment_id: meta for meta in snap_segments}

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
