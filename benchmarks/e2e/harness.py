"""Runs one workload in this process and turns what it recorded into the
metrics ``BENCHMARK.json`` declares.

Two clocks, never mixed: *host* metrics (what this Python process takes;
noisy; what optimisations move) come from every timed batch, *simulated*
and counted metrics (what the modelled hardware does) come from the
workload's exact prefix — a fixed number of batches — so they repeat
bit-for-bit per seed and a host-speed change leaves them identical.

Host time is reported in reference seconds (see ``hostspeed``): every
batch and every set-up has the reference probe run before and after it,
and its wall time is multiplied by the host's speed over that stretch.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

import stats
from hostspeed import probe, speed
from layers import LAYERS, WRAP_TABLE, registry_counts
from spans import IDLE, OTHER, SpanRecorder, install, layer_self_ns
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Set-ups per untraced full run; ``setup_s`` is their median.
SETUP_REPS = 3
#: ``--quick``: this share of the exact prefix and of the default
#: duration, and one set-up.
QUICK_SCALE = 0.25

_now = time.perf_counter_ns


def run_workload(
    name: str,
    seed: int,
    seconds: Optional[float],
    trace: bool,
    quick: bool = False,
    import_s: float = 0.0,
) -> Dict[str, object]:
    """One run of one workload; returns the result document (metrics,
    details and, when traced, the trace)."""
    scale = QUICK_SCALE if quick else 1.0
    if seconds is None:
        seconds = SPEC["run_seconds"] * scale
    setup_reps = 1 if quick or trace else SETUP_REPS
    rec: Optional[SpanRecorder] = None
    if trace:
        rec = SpanRecorder(clock=WORKLOADS[name].span_clock)
        install(rec, WRAP_TABLE)
    exact_batches = max(1, round(WORKLOADS[name].exact_batches * scale))

    workload: Optional[Workload] = None
    setup_times: List[float] = []
    batches: List[dict] = []
    exact: Optional[dict] = None
    child_dump: Dict[str, object] = {}
    try:
        for _ in range(setup_reps):
            if workload is not None:
                workload.close()
            before = probe()
            start = time.perf_counter()
            workload = WORKLOADS[name](seed, rec)
            workload.setup()
            wall_s = time.perf_counter() - start
            setup_times.append(
                {"wall_s": wall_s, "speed": speed(before, probe())})
        workload.warmup()
        gc.collect()

        workload.start_timed()
        budget_ns = seconds * 1e9
        spent_ns = 0
        after = probe()
        while (spent_ns < budget_ns or exact is None) and not workload.broken:
            inputs = workload.next_batch()
            before = after
            # Traced and untraced batches alternate, so the overhead of
            # tracing is measured against the same stretch of the run.
            traced = trace and len(batches) % 2 == 1
            if traced:
                workload.set_tracing(True)
            first_sample = len(workload.wall_ns)
            start = _now()
            ops = workload.run_batch(inputs)
            wall = _now() - start
            after = probe()
            if traced:
                workload.set_tracing(False)
            spent_ns += wall
            batches.append({
                "ops": ops, "wall_ns": wall, "traced": traced,
                "speed": speed(before, after),
                "samples": (first_sample, len(workload.wall_ns)),
            })
            if len(batches) == exact_batches:
                exact = workload.snapshot()
        timed_attempted = workload.attempted
        workload.finish()
    finally:
        if workload is not None:
            child_dump = workload.close()

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "scale": scale,
        "trace": trace,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "op_unit": workload.op_unit,
        "timed_ops": timed_attempted,
        "batches": len(batches),
        "exact_ops": exact["ops"] if exact else 0,
    }
    if exact is None or workload.broken:
        result["correct"] = False
        result["metrics"] = {}
        return result
    result["correct"] = workload.failed == 0
    if not trace:
        values, details = _end_to_end(
            workload, batches, exact,
            setup_s=import_s + stats.median(
                [t["wall_s"] * t["speed"] for t in setup_times]),
            peak_rss_mb=exact["peak_rss_kb"] / 1024.0,
        )
        result["details"] = dict(details, setups=setup_times,
                                 import_s=import_s)
        spec = END_TO_END
    else:
        values, trace_doc = _per_layer(
            workload, rec, batches, exact, child_dump
        )
        result["trace_doc"] = trace_doc
        spec = PER_LAYER
    missing = sorted(set(spec) - set(values))
    extra = sorted(set(values) - set(spec))
    if missing or extra:
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    result["metrics"] = {
        key: {"value": values[key], "unit": spec[key]["unit"]}
        for key in spec
    }
    return result


# ---------------------------------------------------------------------------
# end-to-end metrics (untraced run)
# ---------------------------------------------------------------------------


def _end_to_end(workload, batches, exact, setup_s, peak_rss_mb):
    from repro.obs.amp import write_amp

    wall_us = [ns / 1e3 for ns in workload.wall_ns]
    # Host speed of the program, in reference seconds: each batch's wall
    # time is multiplied by the host's speed while it ran, and the run
    # reports the median batch.  What was measured on the wall clock,
    # unscaled, is in the details.
    batches = [b for b in batches if b["ops"]]
    rate = stats.median(
        [b["ops"] / (b["wall_ns"] / 1e9 * b["speed"]) for b in batches])
    per_batch = [(wall_us[slice(*b["samples"])], b["speed"]) for b in batches]
    p50 = stats.median(
        [stats.median(us) * factor for us, factor in per_batch if us])
    # No host tail is bounded: interference that touches one op in ten
    # moved p95 by 40% for minutes on end.  The tail is kept in the
    # details; the traced run reports it unbounded.
    wall_tail, wall_pct = stats.tail(wall_us, 95.0)
    sim_us = exact["sim_us"]
    sim_tail, sim_pct = stats.tail(sim_us, 99.0)
    counts = registry_counts(exact["registry"])
    values = {
        "ops_per_s": rate,
        "wall_p50_us": p50,
        "sim_ops_per_s": exact["ops"] / (exact["sim_elapsed_us"] / 1e6),
        "sim_mean_us": sum(sim_us) / len(sim_us),
        "sim_p99_us": sim_tail,
        "stored_bytes_per_user_byte":
            exact["physical_bytes"] / exact["logical_bytes"],
        "write_amp": write_amp(
            exact["user_bytes"], counts["csd.nand_bytes_written"]
        ),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "wall_samples": len(wall_us),
        "wall_tail_percentile": wall_pct,
        "sim_samples": len(sim_us),
        "sim_tail_percentile": sim_pct,
        "wall_p95_us": wall_tail,
        "raw_wall_p50_us": stats.median(wall_us),
        "raw_ops_per_s": (
            sum(b["ops"] for b in batches)
            / (sum(b["wall_ns"] for b in batches) / 1e9)
        ),
        "host_speed": stats.median([b["speed"] for b in batches]),
        "batch_raw_ops_per_s": [
            b["ops"] / (b["wall_ns"] / 1e9) for b in batches],
        "batch_host_speed": [b["speed"] for b in batches],
        "exact_counts": counts,
    }
    return values, details


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)
# ---------------------------------------------------------------------------


def _per_layer(workload, rec, batches, exact, child_dump):
    traced = [b for b in batches if b["traced"] and b["ops"]]
    untraced = [b for b in batches if not b["traced"] and b["ops"]]
    ops = sum(b["ops"] for b in traced)
    wall_ns = sum(b["wall_ns"] for b in traced)

    client_rollup = rec.rollup()
    server_rollup = child_dump.get("rollup", [])
    rollup = _merge_rollups(client_rollup, server_rollup)
    by_layer = layer_self_ns(rollup)
    by_name: Dict[str, dict] = {}
    for row in rollup:
        acc = by_name.setdefault(
            row["name"], {"self_ns": 0, "calls": 0, "bytes": 0}
        )
        for field in acc:
            acc[field] += row[field]

    def self_us_per_op(*names: str) -> float:
        return sum(
            by_name[n]["self_ns"] for n in names if n in by_name
        ) / 1e3 / ops

    def calls(*names: str) -> int:
        return sum(by_name[n]["calls"] for n in names if n in by_name)

    def prefixed(prefix: str) -> List[str]:
        return [n for n in by_name if n.startswith(prefix)]

    def mb_per_s(*names: str) -> float:
        """Bytes through the named callables per second of their self
        time (nothing beneath a codec is wrapped, so that is all of it)."""
        nbytes = sum(by_name[n]["bytes"] for n in names if n in by_name)
        ns = sum(by_name[n]["self_ns"] for n in names if n in by_name)
        return nbytes / 1e6 / (ns / 1e9) if ns else 0.0

    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.share"] = by_layer.get(layer, 0) / wall_ns
    for layer in ("compression", "storage", "csd", "db", "engine", "net",
                  "obs"):
        values[f"{layer}.us_per_op"] = by_layer.get(layer, 0) / 1e3 / ops
    values["other.share"] = by_layer.get(OTHER, 0) / wall_ns
    values["trace.coverage"] = (
        sum(by_layer.get(layer, 0) for layer in LAYERS) / wall_ns
    )
    per_op_traced = wall_ns / ops
    per_op_plain = (
        sum(b["wall_ns"] for b in untraced) / sum(b["ops"] for b in untraced)
    )
    values["trace.overhead_share"] = per_op_traced / per_op_plain - 1.0
    plain_us = [
        ns / 1e3 for b in untraced
        for ns in workload.wall_ns[b["samples"][0]:b["samples"][1]]
    ]
    values["host.wall_p95_us"], tail_pct = stats.tail(plain_us, 95.0)

    compress = ("LZ4Codec.compress", "ZstdCodec.compress")
    decompress = ("LZ4Codec.decompress", "ZstdCodec.decompress")
    values["compression.compress_mb_per_s"] = mb_per_s(*compress)
    values["compression.decompress_mb_per_s"] = mb_per_s(*decompress)
    values["compression.compress_calls_per_op"] = calls(*compress) / ops

    # Each prepared page keeps at most one codec output; Algorithm 1's
    # dual evaluation runs two codecs to get it.
    codec_runs = calls(*compress)
    values["compression.kept_per_run"] = (
        calls("StorageNode.prepare_page") / codec_runs if codec_runs else 0.0
    )
    counts = registry_counts(exact["registry"])
    values.update(counts)

    values["storage.wal_us_per_op"] = self_us_per_op(
        *prefixed("WriteAheadLog."))
    values["storage.index_us_per_op"] = self_us_per_op(*prefixed("PageIndex."))
    values["storage.alloc_us_per_op"] = self_us_per_op(
        *prefixed("SpaceManager."))
    values["csd.hw_gzip_us_per_op"] = self_us_per_op(
        *prefixed("HardwareGzip."))
    lookups = calls("BPlusTree.search", "BPlusTree.range_scan",
                    "BPlusTree.insert", "BPlusTree.update",
                    "BPlusTree.delete")
    values["db.btree_pages_per_lookup"] = (
        calls("BufferPool.get_page") / lookups if lookups else 0.0
    )
    events = calls("Engine.schedule")
    values["engine.events_per_op"] = events / ops
    values["engine.host_us_per_event"] = (
        by_layer.get("engine", 0) / 1e3 / events if events else 0.0
    )
    values["net.encode_us_per_op"] = self_us_per_op(
        "encode_frame", "Request.encode", "Response.encode")
    values["net.decode_us_per_op"] = self_us_per_op(
        "FrameDecoder.feed", "decode_message")
    values["net.bytes_per_op"] = (
        by_name.get("encode_frame", {"bytes": 0})["bytes"] / ops
    )
    values["net.rtt_floor_us"] = getattr(workload, "rtt_floor_us", 0.0)
    values["net.server_share"] = (
        sum(row["self_ns"] for row in server_rollup
            if row["layer"] not in (OTHER, IDLE)) / wall_ns
    )
    values["obs.records_per_op"] = sum(
        row["calls"] for row in rollup if row["layer"] == "obs"
    ) / ops

    trace_doc = {
        "workload": workload.name,
        "seed": workload.seed,
        "traced_ops": ops,
        "traced_wall_ns": wall_ns,
        "untraced_us_per_op": per_op_plain / 1e3,
        "untraced_wall_tail_percentile": tail_pct,
        "traced_us_per_op": per_op_traced / 1e3,
        "layers_self_ns": by_layer,
        "rollup": rollup,
        "spans": {
            "benchmark": rec.raw_spans(),
            "server": child_dump.get("spans", []),
        },
    }
    return values, trace_doc


def _merge_rollups(*rollups: List[dict]) -> List[dict]:
    merged: Dict[tuple, dict] = {}
    for rollup in rollups:
        for row in rollup:
            acc = merged.setdefault(
                (row["layer"], row["name"]),
                {"layer": row["layer"], "name": row["name"],
                 "self_ns": 0, "calls": 0, "bytes": 0},
            )
            for field in ("self_ns", "calls", "bytes"):
                acc[field] += row[field]
    rows = list(merged.values())
    rows.sort(key=lambda row: (-row["self_ns"], row["name"]))
    return rows
