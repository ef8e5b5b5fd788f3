"""What the benchmark knows about the program's layers: the wrapper
table the traced run installs, and the exact counts it reads from a
deployment's metrics registry.

Layers are the packages under ``src/repro/``.  Each table row names a
*boundary* callable — one through which control enters a layer, or a
daemon body the engine resumes — so that unwrapped code is charged to
the layer that called it.  Per-byte helpers (``lz77._hash4``, the
``find``/``insert`` closures in ``MatchFinder.tokenize``,
``BitWriter.write``) are never wrapped: a span there would cost more
than the work it measures.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from spans import COUNT_ONLY, IDLE, Row


def _rows(layer: str, module: str, names: str, sizer=None) -> List[Row]:
    return [(layer, module, name, sizer) for name in names.split()]


def _arg1_len(args, _result) -> int:
    return len(args[1])


def _result_len(_args, result) -> int:
    return len(result)


_CLIENT_METHODS = (
    "create_table insert update delete select range_select bulk_load "
    "checkpoint write_page read_page insert_proc update_proc delete_proc "
    "select_proc range_select_proc"
)

WRAP_TABLE: List[Row] = [
    # -- api: the facade and the in-process transport ------------------
    *_rows("api", "repro.api.client",
           " ".join(f"PolarStoreClient.{m}" for m in _CLIENT_METHODS.split())),
    *_rows("api", "repro.api.transport", "LocalTransport.call"),
    # -- db: statements, B+tree, buffer pool ----------------------------
    *_rows("db", "repro.db.rw_node",
           "RWNode.insert RWNode.update RWNode.delete RWNode.select "
           "RWNode.range_select RWNode.insert_proc RWNode.update_proc "
           "RWNode.delete_proc RWNode.select_proc RWNode.range_select_proc "
           "RWNode.bulk_load"),
    *_rows("db", "repro.db.database", "PolarDB.checkpoint"),
    # Called from inside db only, 28 times per oltp_rw transaction: its
    # count is wanted (B+tree pages per lookup), its time stays with the
    # B+tree operation around it.
    *_rows("db", "repro.db.bufferpool", "BufferPool.get_page", COUNT_ONLY),
    *_rows("db", "repro.db.btree",
           "BPlusTree.search BPlusTree.range_scan BPlusTree.insert "
           "BPlusTree.update BPlusTree.delete"),
    # -- engine: the event kernel, its resources, the bridge ------------
    *_rows("engine", "repro.engine.core",
           "Engine.run Engine.run_until_complete Engine.run_until_idle"),
    # One call per event, 42 per oltp_rw transaction, each a heap push.
    *_rows("engine", "repro.engine.core", "Engine.schedule", COUNT_ONLY),
    # Not ``Resource.process``: it is resumed three times per call inside
    # the db and storage procs that ``yield from`` it, 54 spans per oltp_rw
    # transaction, which alone took ``trace.overhead_share`` from 0.45 to
    # 0.68.  Its time (0.1 of oltp_rw) is reported with its caller's layer.
    *_rows("engine", "repro.engine.bridge",
           "WallClockBridge.submit WallClockBridge.drain_to "
           "WallClockBridge.flush"),
    # -- storage: volume, node, WAL, index, allocator, group commit -----
    *_rows("storage", "repro.storage.store",
           "PolarStore.write_page PolarStore.read_page PolarStore.write_redo "
           "PolarStore.write_redo_proc PolarStore.checkpoint"),
    *_rows("storage", "repro.storage.node",
           "StorageNode.prepare_page StorageNode.write_page_local "
           "StorageNode.read_page StorageNode.persist_redo "
           "StorageNode.persist_redo_proc StorageNode.add_redo "
           "StorageNode.consolidate_pending"),
    *_rows("storage", "repro.storage.wal",
           "WriteAheadLog.append WriteAheadLog.append_index_put "
           "WriteAheadLog.append_index_remove WriteAheadLog.append_alloc "
           "WriteAheadLog.append_free WriteAheadLog.append_checkpoint "
           "WriteAheadLog.append_segment"),
    *_rows("storage", "repro.storage.index",
           "PageIndex.get PageIndex.put PageIndex.remove"),
    *_rows("storage", "repro.storage.allocator",
           "SpaceManager.allocate_blocks SpaceManager.free_blocks"),
    *_rows("storage", "repro.storage.commit_pipeline",
           "GroupCommitPipeline.commit_proc GroupCommitPipeline._flush_loop"),
    # -- compression: the software codecs and Algorithm 1 ---------------
    *_rows("compression", "repro.compression.selector",
           "AlgorithmSelector.select"),
    *_rows("compression", "repro.compression.base",
           "Compressor.compress_result"),
    *_rows("compression", "repro.compression.lz4", "LZ4Codec.compress",
           _arg1_len),
    *_rows("compression", "repro.compression.zstd", "ZstdCodec.compress",
           _arg1_len),
    *_rows("compression", "repro.compression.lz4", "LZ4Codec.decompress",
           _result_len),
    *_rows("compression", "repro.compression.zstd", "ZstdCodec.decompress",
           _result_len),
    # -- csd: device model, FTL, in-storage gzip ------------------------
    *_rows("csd", "repro.csd.device",
           "BlockDevice.write BlockDevice.read BlockDevice.trim "
           "BlockDevice.write_proc BlockDevice.read_proc BlockDevice.gc_proc"),
    *_rows("csd", "repro.csd.ftl", "FTL.write FTL.read FTL.trim"),
    *_rows("csd", "repro.compression.gzipdev",
           "HardwareGzip.compress HardwareGzip.decompress"),
    # -- net: wire protocol, socket client, asyncio loop callbacks ------
    *_rows("net", "repro.net.protocol", "encode_frame", _result_len),
    *_rows("net", "repro.net.protocol", "FrameDecoder.feed", _arg1_len),
    *_rows("net", "repro.net.protocol",
           "Request.encode Response.encode decode_message"),
    *_rows("net", "repro.net.server", "decode_message"),
    *_rows("net", "repro.net.client", "decode_message SocketTransport.call"),
    # Everything a server (and the client pool's loop thread) does runs
    # inside an asyncio callback; its self time is the loop machinery,
    # the socket calls and the server's own routing.
    *_rows("net", "asyncio.events", "Handle._run"),
    *_rows("net", "asyncio.base_events", "BaseEventLoop._run_once"),
    # The calling thread blocked on the reply: nobody's work.
    *_rows(IDLE, "repro.net.client", "SocketPool.wait"),
    # -- obs: instruments, tracer, flight recorder ----------------------
    *_rows("obs", "repro.obs.metrics",
           "Counter.inc Counter.add Histogram.record Gauge.set "
           "BoundedSeries.append"),
    *_rows("obs", "repro.obs.tracing", "Tracer.begin Tracer.end"),
    *_rows("obs", "repro.obs.events", "FlightRecorder.emit"),
]

#: Program layers, in report order.
LAYERS = ("api", "db", "engine", "storage", "compression", "csd", "net", "obs")


# ---------------------------------------------------------------------------
# exact counts from a metrics registry
# ---------------------------------------------------------------------------


def registry_counts(state: Iterable[dict]) -> Dict[str, float]:
    """Exact per-layer counts from ``MetricsRegistry.state()`` records
    (summed over replicas and label sets)."""
    sums: Dict[str, float] = {}
    hist_counts: Dict[str, float] = {}
    wait_hists: List[dict] = []
    for rec in state:
        name, kind = rec["name"], rec["kind"]
        if kind == "counter":
            sums[name] = sums.get(name, 0.0) + rec["value"]
        elif kind == "histogram":
            hist_counts[name] = hist_counts.get(name, 0.0) + rec["count"]
            if name == "engine.resource.queue_wait_us":
                wait_hists.append(rec)

    def counter(name: str) -> float:
        return sums.get(name, 0.0)

    batches = counter("storage.group_commit.batches")
    hits = counter("db.bufferpool.hits")
    misses = counter("db.bufferpool.misses")
    page_reads = hist_counts.get("storage.page_read_us", 0.0)
    device_reads = hist_counts.get("csd.device.read_us", 0.0)
    return {
        "compression.selector_evaluations":
            counter("compression.selector.evaluations"),
        "compression.selector_fallbacks":
            counter("compression.selector.fallbacks"),
        "storage.wal_flushes": counter("storage.wal_flushes"),
        "storage.redo_spills": counter("storage.redo_spills"),
        "storage.consolidations": counter("storage.consolidations"),
        "storage.group_commit_batch_mean": (
            counter("storage.group_commit.commits") / batches
            if batches else 0.0
        ),
        "storage.read_ios_per_read": (
            device_reads / page_reads if page_reads else 0.0
        ),
        "csd.device_writes": hist_counts.get("csd.device.write_us", 0.0),
        "csd.device_reads": device_reads,
        "csd.bytes_written": counter("csd.device.write_bytes"),
        "csd.nand_bytes_written": counter("csd.ftl.nand_written_bytes"),
        "csd.gc_runs": counter("csd.ftl.gc_runs"),
        "csd.gc_relocated_bytes": counter("csd.ftl.gc_relocated_bytes"),
        "csd.trims": counter("csd.ftl.trims"),
        "db.bufferpool_hit_rate": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "db.bufferpool_misses": misses,
        "engine.sim_queue_wait_p99_us": _merged_p99(wait_hists),
    }


def _merged_p99(records: List[dict]) -> float:
    """p99 over several label sets of one histogram family, folded by the
    registry's own merge."""
    if not any(rec["count"] for rec in records):
        return 0.0
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.merge_states([[dict(rec, labels={})] for rec in records])
    return registry.get(records[0]["name"]).percentile(99.0)


def state_from_json(records: List[dict]) -> List[dict]:
    """Undo JSON's stringified histogram bucket keys."""
    for rec in records:
        if "counts" in rec:
            rec["counts"] = {int(k): v for k, v in rec["counts"].items()}
    return records
