"""The thread-scaling figures: Figure 12's cluster sweep and Figure 15's
per-page-log read-latency sweep, each written once.

Both ride entirely on the event-driven stack (``repro.engine`` under
``workloads.sysbench``).  ``benchmarks/bench_fig12_overall.py`` and
``bench_fig15_perpage_log.py`` call the runners at their full budgets and
assert the paper's shapes; ``python -m repro bench --fig N --quick`` calls
the same runners at the trimmed budgets CI's determinism checks use.  A
profile is a set of budgets, not a second code path.

Everything here is a pure function of its seed and budgets: the tables
(and the JSON files :func:`repro.bench.harness.save_result` writes)
must come out byte-for-byte identical across runs and worker counts,
which CI enforces by running the quick profiles twice and diffing.
"""

from __future__ import annotations

from typing import Optional

from repro.api.config import NodeConfig
from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import KiB, MiB
from repro.csd.specs import (
    OPTANE_P4800X,
    OPTANE_P5800X,
    P4510,
    P5510,
    POLARCSD1,
    POLARCSD2,
)
from repro.db.database import PolarDB
from repro.db.ro_node import RONode
from repro.engine.parallel import run_programs
from repro.storage.store import PolarStore
from repro.workloads.sysbench import (
    WORKLOAD_LABELS,
    prepare_table,
    run_sysbench,
)

_HARDWARE_ONLY = NodeConfig(
    software_compression=False, opt_algorithm_selection=False,
    opt_per_page_log=False,
)

#: Cluster configurations from Table 2.
FIG12_CLUSTERS = {
    "N1": dict(data_spec=P4510, perf_spec=OPTANE_P4800X,
               config=_HARDWARE_ONLY),
    "C1": dict(data_spec=POLARCSD1, perf_spec=OPTANE_P4800X,
               config=_HARDWARE_ONLY),
    "N2": dict(data_spec=P5510, perf_spec=OPTANE_P5800X,
               config=_HARDWARE_ONLY),
    "C2": dict(data_spec=POLARCSD2, perf_spec=OPTANE_P5800X,
               config=NodeConfig()),
}

#: ``rows`` is sized so the working set far exceeds the 10-page buffer
#: pool — the paper's "I/O-bound environment" (480 GB data vs 32 GB RAM)
#: at simulation scale.  ``budgets`` are transactions per workload,
#: trimmed for pure-Python runtime; the simulated clock still exposes the
#: relative ordering the paper reports.  ``digits`` rounds the saved
#: cells (the quick artifacts have always been rounded; the full figures
#: keep the simulator's floats).
FIG12_PROFILES = {
    False: dict(
        experiment="fig12_overall",
        description="sysbench throughput / avg latency / P95 per cluster",
        rows=3000,
        budgets={
            "insert": 60,
            "point_select": 200,
            "read_only": 40,
            "read_write": 30,
            "write_only": 45,
            "update_index": 60,
            "update_non_index": 80,
        },
        digits=None,
    ),
    True: dict(
        experiment="fig12_quick",
        description="quick sysbench cluster sweep (event-driven, 16 clients)",
        rows=800,
        budgets={"point_select": 60, "read_write": 12},
        digits=3,
    ),
}

#: ``sweep`` is the RO node's client thread counts; each point is one
#: ``burst_txns`` write burst on the RW node, then ``read_txns`` reads.
FIG15_PROFILES = {
    False: dict(
        experiment="fig15_perpage_log",
        description="RO-node P95 read latency vs threads, "
                    "baseline vs per-page log",
        rows=1500,
        sweep=(16, 32, 64, 128, 256),
        burst_txns=500,
        read_txns=160,
        digits=None,
    ),
    True: dict(
        experiment="fig15_quick",
        description="quick RO-node P95 sweep, baseline vs per-page log",
        rows=600,
        sweep=(16, 128),
        burst_txns=150,
        read_txns=60,
        digits=3,
    ),
}


def _rounded(value: float, digits: Optional[int]) -> float:
    return value if digits is None else round(value, digits)


def mean_tps_ratio(result: ExperimentResult, cluster: str, baseline: str) -> float:
    """``cluster``'s throughput over ``baseline``'s, averaged across the
    workloads of a Figure 12 table."""
    tps = {(row[0], row[1]): row[2] for row in result.rows}
    workloads = dict.fromkeys(row[0] for row in result.rows)
    ratios = [tps[(w, cluster)] / tps[(w, baseline)] for w in workloads]
    return sum(ratios) / len(ratios)


def run_fig12(
    out_dir: Optional[str] = None, quick: bool = False, workers: int = 1
) -> ExperimentResult:
    """Figure 12: N1/C1/N2/C2 across the sysbench workloads (throughput,
    average latency, P95), 16 concurrent clients per run queueing on the
    shared engine.

    Each cluster cell is an independent engine universe, so ``workers``
    fans the cells across worker processes
    (:func:`~repro.engine.parallel.run_programs`);
    the assembled table is byte-identical at any worker count."""
    profile = FIG12_PROFILES[quick]
    rows, digits = profile["rows"], profile["digits"]
    result = ExperimentResult(
        profile["experiment"], profile["description"],
        ["workload", "cluster", "tps", "avg_us", "p95_us"],
    )

    def cluster_cell(cluster: str, spec: dict) -> list:
        store = PolarStore(
            spec["config"], data_spec=spec["data_spec"],
            perf_spec=spec["perf_spec"], volume_bytes=128 * MiB, seed=3,
        )
        db = PolarDB(store=store, buffer_pool_pages=10)
        now = prepare_table(db, rows=rows, seed=3)
        cell_rows = []
        for workload, budget in profile["budgets"].items():
            run = run_sysbench(
                db, workload, duration_s=30.0, threads=16,
                key_range=rows, start_us=now, seed=11,
                max_transactions=budget,
            )
            now += 40e6
            cell_rows.append((
                WORKLOAD_LABELS[workload], cluster,
                _rounded(run.tps, digits),
                _rounded(run.avg_latency_us, digits),
                _rounded(run.p95_latency_us, digits),
            ))
        return cell_rows

    cells = run_programs(
        [
            lambda cluster=cluster, spec=spec: cluster_cell(cluster, spec)
            for cluster, spec in FIG12_CLUSTERS.items()
        ],
        workers=workers,
    )
    for cell_rows in cells:
        for row in cell_rows:
            result.add(*row)
    if not quick:
        # The paper's averages are over all seven workloads.
        for cluster, baseline in (("C1", "N1"), ("C2", "N2")):
            result.note(
                f"{cluster} throughput vs {baseline}: "
                f"{mean_tps_ratio(result, cluster, baseline):.2f}x on average "
                "(paper: C1 ~0.90x, C2 ~1.00x)"
            )
    print_table(result)
    save_result(result, out_dir)
    return result


def run_fig15(
    out_dir: Optional[str] = None, quick: bool = False, workers: int = 1
) -> ExperimentResult:
    """Figure 15: P95 read latency on a lagging RO node, baseline vs
    per-page log (Opt#3), across client thread counts.

    A tiny storage redo cache forces spills; write bursts between read
    phases keep pages' logs scattered; reads route to an RO node whose
    two-core pool saturates at high thread counts.

    The baseline and per-page-log variants are independent universes;
    ``workers`` runs them in parallel worker processes with byte-
    identical output."""
    profile = FIG15_PROFILES[quick]
    rows, sweep, digits = profile["rows"], profile["sweep"], profile["digits"]
    result = ExperimentResult(
        profile["experiment"], profile["description"],
        ["threads", "baseline_p95_us", "perpage_p95_us", "p95_reduction"],
    )

    def variant_p95(per_page_log: bool) -> dict:
        config = NodeConfig(
            opt_per_page_log=per_page_log,
            opt_algorithm_selection=False,  # isolate Opt#3
            # A small redo cache stands in for a lagging RO node, whose
            # unparsed redo storage could not recycle: log cache pressure.
            redo_cache_bytes=8 * KiB,
        )
        store = PolarStore(config, volume_bytes=128 * MiB, seed=9)
        # The RW node's working set stays cached (it never reads storage,
        # it only ships redo); the lagging RO node drives all storage reads.
        db = PolarDB(store=store, buffer_pool_pages=512, ro_nodes=0)
        db.ro.append(
            RONode(store, db.rw, buffer_pool_pages=4, cpu_cores=2)
        )
        now = prepare_table(db, rows=rows, seed=9)
        out = {}
        for threads in sweep:
            run_sysbench(
                db, "update_non_index", duration_s=60.0, threads=16,
                key_range=rows, start_us=now, seed=31 + threads,
                max_transactions=profile["burst_txns"],
            )
            now += 70e6
            reads = run_sysbench(
                db, "point_select", duration_s=60.0, threads=threads,
                key_range=rows, start_us=now, seed=32 + threads,
                max_transactions=profile["read_txns"], ro_index=0,
            )
            now += 70e6
            out[threads] = reads.p95_latency_us
        return out

    baseline, perpage = run_programs(
        [
            lambda ppl=per_page_log: variant_p95(ppl)
            for per_page_log in (False, True)
        ],
        workers=workers,
    )
    for threads in sweep:
        base, opt = baseline[threads], perpage[threads]
        result.add(
            threads, _rounded(base, digits), _rounded(opt, digits),
            # A ratio: two more places than the microsecond cells.
            _rounded(1 - opt / base, None if digits is None else digits + 2),
        )
    if not quick:
        result.note(
            "paper: 28.9-39.5% P95 reduction below 128 threads; CPU-bound "
            "beyond 128 threads erodes the benefit"
        )
    print_table(result)
    save_result(result, out_dir)
    return result


FIGURES = {"12": run_fig12, "15": run_fig15}
