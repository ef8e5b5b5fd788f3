"""Table-level cold-data archiving to object storage (§6).

The paper's "Alternative Space-Saving Approaches" notes that the system
supports archiving cold tables to object storage.  This module implements
that tier: an :class:`ObjectStore` with object-storage characteristics
(millisecond latency, per-request overhead, very low cost per byte) and a
:class:`TieringManager` that moves page ranges out of a storage node —
heavy-compressed as a single object — and serves reads for archived pages
transparently, with optional restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.errors import ReproError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.compression.cost import codec_cost
from repro.engine.resources import Resource
from repro.storage.heavy import HeavySegmentStore
from repro.storage.node import ReadResult, StorageNode


@dataclass
class ObjectStoreStats:
    puts: int = 0
    gets: int = 0
    bytes_stored: int = 0


class ObjectStore:
    """A simulated object-storage service (S3/OSS-class).

    Latency model: fixed per-request overhead (metadata, HTTP, auth) plus
    throughput-limited transfer.  Requests share one connection pool.
    """

    def __init__(
        self,
        request_overhead_us: float = 15_000.0,
        throughput_mib_s: float = 200.0,
        connections: int = 8,
    ) -> None:
        self.request_overhead_us = request_overhead_us
        self.throughput_mib_s = throughput_mib_s
        self.pool = Resource("object-store")
        self._objects: Dict[str, bytes] = {}
        self.stats = ObjectStoreStats()
        self._connections = connections

    def _transfer_us(self, nbytes: int) -> float:
        return nbytes / (self.throughput_mib_s * MiB) * 1e6

    def put(self, start_us: float, key: str, blob: bytes) -> float:
        service = self.request_overhead_us + self._transfer_us(len(blob))
        done = self.pool.serve(start_us, service / self._connections)
        self._objects[key] = blob
        self.stats.puts += 1
        self.stats.bytes_stored += len(blob)
        return done

    def get(self, start_us: float, key: str) -> Tuple[bytes, float]:
        if key not in self._objects:
            raise ReproError(f"object {key!r} does not exist")
        blob = self._objects[key]
        service = self.request_overhead_us + self._transfer_us(len(blob))
        done = self.pool.serve(start_us, service / self._connections)
        self.stats.gets += 1
        return blob, done

    def delete(self, key: str) -> None:
        blob = self._objects.pop(key, None)
        if blob is not None:
            self.stats.bytes_stored -= len(blob)

    @property
    def stored_bytes(self) -> int:
        return self.stats.bytes_stored


@dataclass(frozen=True)
class ArchivedRange:
    key: str
    page_nos: Tuple[int, ...]
    compressed_len: int


class TieringManager:
    """Moves cold page ranges between a storage node and object storage."""

    #: Heavy-effort codec shared with the archival path.
    CODEC = HeavySegmentStore.HEAVY_CODEC

    def __init__(self, node: StorageNode, object_store: ObjectStore) -> None:
        self.node = node
        self.remote = object_store
        self._archived: Dict[int, ArchivedRange] = {}  # page_no -> range
        self._next_key = 0

    # -- archive ------------------------------------------------------------

    def archive_to_object_store(
        self, start_us: float, page_nos: List[int]
    ) -> Tuple[ArchivedRange, float]:
        """Heavy-compress ``page_nos`` into one object and free the local
        copies entirely (unlike heavy compression, which stays local)."""
        if not page_nos:
            raise ReproError("cannot archive an empty range")
        pages = []
        now = start_us
        for page_no in page_nos:
            if page_no in self._archived:
                raise ReproError(f"page {page_no} is already archived")
            result = self.node.read_page(now, page_no)
            now = result.done_us
            pages.append(result.data)
        blob = self.CODEC.compress(b"".join(pages))
        now += codec_cost("zstd-heavy").compress_us(len(pages) * DB_PAGE_SIZE)
        key = f"archive-{self.node.name}-{self._next_key}"
        self._next_key += 1
        now = self.remote.put(now, key, blob)
        archived = ArchivedRange(key, tuple(page_nos), len(blob))
        for page_no in page_nos:
            self._archived[page_no] = archived
            self.node.drop_page(page_no)
        return archived, now

    # -- read ------------------------------------------------------------------

    def read_page(self, start_us: float, page_no: int) -> ReadResult:
        """Transparent read: local tier first, then the object tier."""
        archived = self._archived.get(page_no)
        if archived is None:
            return self.node.read_page(start_us, page_no)
        blob, now = self.remote.get(start_us, archived.key)
        segment = self.CODEC.decompress(blob)
        now += codec_cost("zstd-heavy").decompress_us(len(segment))
        position = archived.page_nos.index(page_no)
        data = segment[position * DB_PAGE_SIZE : (position + 1) * DB_PAGE_SIZE]
        return ReadResult(data, now, 1, 0.0)

    # -- restore -----------------------------------------------------------------

    def restore(self, start_us: float, key_page: int) -> float:
        """Bring an archived range back to the local tier."""
        archived = self._archived.get(key_page)
        if archived is None:
            raise ReproError(f"page {key_page} is not archived")
        blob, now = self.remote.get(start_us, archived.key)
        segment = self.CODEC.decompress(blob)
        now += codec_cost("zstd-heavy").decompress_us(len(segment))
        for position, page_no in enumerate(archived.page_nos):
            image = segment[
                position * DB_PAGE_SIZE : (position + 1) * DB_PAGE_SIZE
            ]
            now = self.node.write_page(now, page_no, image).done_us
            del self._archived[page_no]
        self.remote.delete(archived.key)
        return now

    @property
    def archived_pages(self) -> int:
        return len(self._archived)

    def local_bytes_saved(self) -> int:
        """Logical bytes evicted from the local tier."""
        return len(self._archived) * DB_PAGE_SIZE
