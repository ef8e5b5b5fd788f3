"""The scenario table: every seeded run this repo names, defined once.

:data:`SCENARIOS` has one row per scenario: ``sysbench`` (8-client OLTP
on one replicated volume), ``chaos`` (the seeded fault-injection
schedule) and ``cluster`` (skewed ingest plus live migration, the
Fig 10/11 shape).  A row holds a default seed and one seeded program.
A run's violations include a span its volume's tracer left open
(``sysbench`` and ``chaos``; ``cluster``'s volumes live inside
``run_fig10_11``).
The program folds everything it produced (transaction counts, simulated
latencies, page bytes read back, the chaos report, the experiment table,
and the full metrics snapshot) into one SHA-256 and returns a
:class:`ScenarioRun`: two runs that agree on the fingerprint agree on
every byte and every simulated microsecond.

:func:`run_scenario` is the one entry point.  ``python -m repro events``
runs it under the flight recorder; ``tests/perf/golden/scenarios.json``
pins each row's record at its default seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import tempfile
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional


@dataclass
class ScenarioRun:
    """One run's verdict (a violation list) and its fingerprint."""

    violations: List[str]
    fingerprint: str
    pages: int
    sim_us: float


def metrics_digest(registry) -> str:
    """Digest every instrument: sim timings, bytes, counters."""
    instruments = [inst.describe() for inst in registry.instruments()]
    blob = json.dumps(instruments, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _open_span(registry) -> List[str]:
    """A violation when ``registry``'s tracer still holds an open span at
    the end of a run: a leaked span makes every later request a child of
    it, so their time is attributed to the wrong trace."""
    tracer = registry.tracer
    if not tracer.active:
        return []
    return [f"span {tracer.current.name!r} still open at the end of the run"]


def _sysbench(seed: int) -> ScenarioRun:
    """8-client sysbench read_write on one replicated volume, then a
    checkpoint, a scrub and a byte-exact read-back of a page sample.

    The bulk load's checkpoint consolidates every dirty page on all
    three replicas with identical page images, which is exactly the
    duplicate work the codec memo collapses.
    """
    from repro.api import ReproConfig, build_db
    from repro.workloads.sysbench import prepare_table, run_sysbench

    db = build_db(ReproConfig())
    store = db.store
    loaded_us = prepare_table(db, rows=64, seed=seed)
    result = run_sysbench(
        db, "read_write", duration_s=4.0, threads=8, key_range=64,
        start_us=loaded_us, max_transactions=24, seed=seed,
    )
    end_us = db.checkpoint(loaded_us + result.elapsed_s * 1e6)
    scrubbed_us = store.scrub(end_us)
    digest = hashlib.sha256()
    now = scrubbed_us + 1e6
    live = sorted(pn for pn, _ in store.leader.index.items())
    for page_no in live[:: max(1, len(live) // 24)]:
        read = store.read_page(now, page_no)
        now = read.done_us
        digest.update(page_no.to_bytes(8, "little"))
        digest.update(bytes(read.data))
    digest.update(metrics_digest(store.metrics).encode())
    digest.update(json.dumps({
        "loaded_us": loaded_us,
        "end_us": end_us,
        "scrubbed_us": scrubbed_us,
        "transactions": result.transactions,
        "elapsed_s": result.elapsed_s,
        "mean_us": result.latency.mean_us,
        "p95_us": result.latency.p95_us,
    }, sort_keys=True).encode())
    violations = []
    unrepairable = sum(
        inst.value for inst in store.metrics.find("chaos.unrepairable")
    )
    if unrepairable:
        violations.append(f"{unrepairable} unrepairable page copies")
    ratio = db.compression_ratio()
    if ratio < 1.0:
        violations.append(f"compression ratio {ratio} < 1")
    violations += _open_span(store.metrics)
    # Pages moved through the store: committed writes + served reads.
    pages = sum(
        hist.count
        for name in ("storage.page_write_us", "storage.page_read_us")
        for hist in store.metrics.find(name)
    )
    return ScenarioRun(violations, digest.hexdigest(), pages, now)


def _chaos(seed: int) -> ScenarioRun:
    """Seeded fault-injection smoke: bit flips, torn and misdirected
    writes flow through the write path, and the rendered invariant
    report is part of the fingerprint."""
    from repro.chaos.harness import run_chaos

    report = run_chaos(
        seed=seed, ops=80, pages=32, scrub_every=40, min_data_faults=2,
    )
    digest = hashlib.sha256(report.render().encode())
    digest.update(metrics_digest(report.metrics).encode())
    return ScenarioRun(
        list(report.violations) + _open_span(report.metrics),
        digest.hexdigest(), report.writes + report.reads, 0.0,
    )


def _cluster(seed: int) -> ScenarioRun:
    """Skewed ingest and live migration under both schedulers (Fig 10/11
    on a 2-shard fleet).  Each leg's ``verify_readable`` raises on a row
    lost in migration, so a finished run has no violations."""
    from repro.bench.cluster_fig import run_fig10_11

    with tempfile.TemporaryDirectory() as scratch:
        result = run_fig10_11(
            out_dir=scratch, shards=2, chunks=4, seed=seed, quiet=True,
        )
    blob = json.dumps(result.to_dict(), sort_keys=True, default=repr)
    rows = [dict(zip(result.columns, row)) for row in result.rows]
    return ScenarioRun(
        [],
        hashlib.sha256(blob.encode()).hexdigest(),
        sum(int(r["moved_pages"]) + int(r["catchup_pages"]) for r in rows),
        max(float(r["makespan_ms"]) * 1e3 for r in rows),
    )


class Scenario(NamedTuple):
    """A row of the table: its default seed and its seeded program."""

    seed: int
    program: Callable[[int], ScenarioRun]


SCENARIOS = {
    "sysbench": Scenario(7, _sysbench),
    "chaos": Scenario(42, _chaos),
    "cluster": Scenario(0, _cluster),
}


def run_scenario(name: str, seed: Optional[int] = None) -> ScenarioRun:
    """Run row ``name`` at ``seed`` (default: the row's own seed).

    The process-global node-name counter is rewound first, so every run
    builds "node-0/1/2...": metric labels, fingerprints and event logs
    then match across runs in one process.
    """
    from repro.storage import store

    store._node_counter = itertools.count()
    row = SCENARIOS[name]
    return row.program(row.seed if seed is None else seed)


__all__ = ["SCENARIOS", "Scenario", "ScenarioRun", "metrics_digest",
           "run_scenario"]
