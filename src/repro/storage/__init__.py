"""The PolarStore storage node software.

Implements §3 of the paper: the lightweight software compression layer
(two-level allocator, hash-table page index, write-ahead log, 3-way
majority-commit replication), the three write modes (normal / no / heavy
compression), and the three DB-oriented optimizations:

* Opt#1 — redo-log writes bypass compression onto the performance device;
* Opt#2 — adaptive lz4/zstd selection per page (Algorithm 1);
* Opt#3 — per-page log co-location to remove read amplification from page
  consolidation.

Maintenance — scrub, checkpoint, consolidation of pending redo — runs
only when a caller invokes it.  :mod:`repro.storage.consolidation`
models leveled and tiered alternatives to Opt#3 for the
write-amplification benchmark (``python -m repro compaction``); no
volume runs them.
"""

from repro.storage.allocator import BitmapAllocator, GlobalAllocator, SpaceManager
from repro.storage.cache import LRUCache
from repro.storage.index import CompressionInfo, IndexEntry, PageIndex
from repro.storage.node import NodeConfig, StorageNode
from repro.storage.replication import NetworkModel, ReplicationGroup
from repro.storage.store import CompressionMode, PolarStore
from repro.storage.wal import WriteAheadLog

__all__ = [
    "GlobalAllocator",
    "BitmapAllocator",
    "SpaceManager",
    "LRUCache",
    "PageIndex",
    "IndexEntry",
    "CompressionInfo",
    "WriteAheadLog",
    "NetworkModel",
    "ReplicationGroup",
    "StorageNode",
    "NodeConfig",
    "PolarStore",
    "CompressionMode",
]
