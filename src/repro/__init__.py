"""PolarStore reproduction: dual-layer compression for cloud-native RDBMSs.

Subpackages
-----------
``repro.common``
    Units, simulated clock, latency statistics, errors.
``repro.compression``
    LZ4 and zstd-like codecs, hardware-gzip model, Algorithm-1 selector.
``repro.csd``
    PolarCSD simulator (FTL, NAND, GC, TRIM) plus conventional SSD models.
``repro.storage``
    The PolarStore storage node: allocator, index, WAL, replication, the
    three compression write modes, and the DB-oriented optimizations.
``repro.db``
    A miniature cloud-native database engine (pages, B+tree, buffer pool,
    redo, RW/RO nodes) used to drive realistic I/O.
``repro.baselines``
    InnoDB-style and MyRocks-style compression baselines.
``repro.cluster``
    Cluster space management and compression-aware scheduling.
``repro.workloads``
    Dataset generators and a sysbench-like OLTP driver.
``repro.obs``
    Metrics registry (counters, gauges, histograms), I/O tracing, and
    JSON/Prometheus exporters shared by every layer above.
"""

__version__ = "1.0.0"
