"""A miniature cloud-native database engine.

Implements just enough of a PolarDB-style RDBMS to drive realistic I/O at
the storage layer: 16 KB slotted pages, a B+tree, an LRU buffer pool,
physiological redo generation, a read-write (RW) compute node that commits
transactions by persisting redo to shared storage, and read-only (RO)
nodes that track the RW node's LSN (§2.1).

The engine's page mutations produce byte-exact redo records, so storage-
side page consolidation (applying redo to page images) reconstructs pages
the compute layer actually parses — data flow is real end to end.
"""
