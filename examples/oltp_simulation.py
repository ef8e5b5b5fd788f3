#!/usr/bin/env python
"""An OLTP day-in-the-life on the full stack.

Builds a PolarDB instance (RW node + RO node over replicated PolarStore),
loads a table, runs a sysbench-style mixed workload, and reports the
throughput/latency and space numbers the storage layer produced — the
miniature version of the paper's §5.1 evaluation.

Run:  python examples/oltp_simulation.py
"""

from repro.api.config import NodeConfig
from repro.common.units import MiB
from repro.db.database import PolarDB
from repro.workloads.sysbench import (
    WORKLOAD_LABELS,
    prepare_table,
    run_sysbench,
)


def main() -> None:
    db = PolarDB(
        config=NodeConfig(),
        volume_bytes=128 * MiB,
        buffer_pool_pages=12,   # small pool => I/O-bound, like the paper
        ro_nodes=1,
        seed=42,
    )
    print("loading 2000 rows ...")
    now = prepare_table(db, rows=2000, seed=42)
    print(f"loaded at simulated t={now / 1e6:.3f}s; "
          f"compression ratio {db.compression_ratio():.2f}x")

    for workload in ("point_select", "read_only", "read_write"):
        run = run_sysbench(
            db, workload, duration_s=30.0, threads=16, key_range=2000,
            start_us=now, seed=7, max_transactions=60,
        )
        now += 40e6
        print(f"{WORKLOAD_LABELS[workload]:>5}: {run.transactions} txns, "
              f"{run.tps:,.0f} tps, avg {run.avg_latency_us:,.0f}us, "
              f"P95 {run.p95_latency_us:,.0f}us")

    # Read from the read-only node (pages are regenerated from redo by the
    # storage layer — the RW node never wrote a page back).
    result = db.select(now, "sbtest", 123, ro_index=0)
    print(f"\nRO-node point select: {result.latency_us(now):,.0f}us, "
          f"{result.io_reads} storage I/O")

    print(f"\nfinal space: logical {db.logical_bytes // 1024} KiB, "
          f"physical {db.physical_bytes // 1024} KiB "
          f"({db.compression_ratio():.2f}x)")


if __name__ == "__main__":
    main()
