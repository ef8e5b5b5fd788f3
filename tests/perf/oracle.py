"""The three pinned fingerprint scenarios: a test oracle, not product code.

Each scenario runs a seeded workload and folds everything it produced —
transaction counts, simulated latencies, page bytes read back, the chaos
report, the experiment table, and the full metrics snapshot (every
simulated duration, device byte count and checksum-driven counter in
the stack) — into one SHA-256.  Two runs that agree on the fingerprint
agree on every byte and every simulated microsecond, which is what
``test_golden_equivalence.py`` (memo against a zero-capacity cache) and
``test_scenario_goldens.py`` (this tree against ``golden/scenarios.json``)
compare.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import tempfile
from dataclasses import dataclass

from repro.compression import memo
from repro.storage import store as store_mod


@dataclass
class ScenarioRun:
    fingerprint: str
    pages: int
    sim_us: float


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


def metrics_digest(registry) -> str:
    """Digest every instrument: sim timings, bytes, counters."""
    instruments = [inst.describe() for inst in registry.instruments()]
    blob = json.dumps(instruments, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _page_ops(registry) -> int:
    """Pages moved through the store: committed writes + served reads."""
    return sum(
        hist.count
        for name in ("storage.page_write_us", "storage.page_read_us")
        for hist in registry.find(name)
    )


def run_scenario(fn, quick: bool = True) -> ScenarioRun:
    # Rewind the process-global node-name counter so every run of a
    # scenario builds "node-0/1/2..." — metric labels must line up for
    # the fingerprints to be comparable.
    store_mod._node_counter = itertools.count()
    return fn(quick)


def scenario_sysbench8(quick: bool = False) -> ScenarioRun:
    """8-client sysbench read_write on one replicated volume.

    The bulk load's checkpoint consolidates every dirty page on all
    three replicas with identical page images, which is exactly the
    duplicate work the codec memo collapses.
    """
    from repro.api import ReproConfig, build_db
    from repro.workloads.sysbench import prepare_table, run_sysbench

    rows = 64 if quick else 320
    txns = 24 if quick else 96
    db = build_db(ReproConfig())
    loaded_us = prepare_table(db, rows=rows, seed=7)
    result = run_sysbench(
        db,
        "read_write",
        duration_s=4.0,
        threads=8,
        key_range=rows,
        start_us=loaded_us,
        max_transactions=txns,
        seed=7,
    )
    store = db.store
    # Post-run housekeeping, same as production: checkpoint the dirty
    # tail, then run the background integrity scrub (every page re-read
    # on every replica).
    end_us = db.checkpoint(loaded_us + result.elapsed_s * 1e6)
    scrubbed_us = store.scrub(end_us)
    # Byte-identity read-back: hash the materialized contents of a fixed
    # sample of live pages at a fixed simulated instant.
    digest = hashlib.sha256()
    now = scrubbed_us + 1e6
    pages = sorted(pn for pn, _ in store.leader.index.items())
    for page_no in pages[:: max(1, len(pages) // 24)]:
        read = store.read_page(now, page_no)
        now = read.done_us
        digest.update(page_no.to_bytes(8, "little"))
        digest.update(bytes(read.data))
    digest.update(metrics_digest(store.metrics).encode())
    digest.update(
        json.dumps(
            {
                "loaded_us": loaded_us,
                "end_us": end_us,
                "scrubbed_us": scrubbed_us,
                "transactions": result.transactions,
                "elapsed_s": result.elapsed_s,
                "mean_us": result.latency.mean_us,
                "p95_us": result.latency.p95_us,
            },
            sort_keys=True,
        ).encode()
    )
    return ScenarioRun(digest.hexdigest(), _page_ops(store.metrics), now)


def scenario_chaos_smoke(quick: bool = False) -> ScenarioRun:
    """Seeded fault-injection smoke: bit flips, torn and misdirected
    writes flow through the write path the memo serves, and the rendered
    invariant report must not notice."""
    from repro.chaos.harness import run_chaos

    report = run_chaos(
        seed=42,
        ops=80 if quick else 160,
        pages=32,
        scrub_every=40,
        min_data_faults=2,
    )
    digest = hashlib.sha256(report.render().encode())
    digest.update(metrics_digest(report.metrics).encode())
    if not report.passed:
        raise AssertionError(
            f"chaos invariants violated: {report.violations}"
        )
    return ScenarioRun(digest.hexdigest(), report.writes + report.reads, 0.0)


def scenario_cluster_ingest(quick: bool = False) -> ScenarioRun:
    """Skewed-ingest + live migration on the sharded runtime (Fig 10/11
    shape, smaller fleet): cross-volume duplicate page images during
    migration catch-up are the memo's cluster-level win."""
    from repro.bench.cluster_fig import run_fig10_11

    with tempfile.TemporaryDirectory() as scratch:
        result = run_fig10_11(
            out_dir=scratch,
            shards=2 if quick else 3,
            chunks=4 if quick else 8,
            seed=0,
            quiet=True,
        )
    blob = json.dumps(result.to_dict(), sort_keys=True, default=repr)
    rows = [dict(zip(result.columns, row)) for row in result.rows]
    return ScenarioRun(
        hashlib.sha256(blob.encode()).hexdigest(),
        sum(int(r["moved_pages"]) + int(r["catchup_pages"]) for r in rows),
        max(float(r["makespan_ms"]) * 1e3 for r in rows),
    )
