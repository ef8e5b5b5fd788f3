"""Figure 13: impact of each technique on performance (OLTP-Read-Write).

Paper result, adding techniques one at a time on C2 hardware:

* PolarCSD hardware compression alone: −7.4% throughput vs the P5510
  baseline (higher CSD read latency).
* +dual-layer: a further −19.6% (software-compressing 16 KB redo writes
  pushes redo commit latency 59 µs → 79 µs).
* +bypass-redo (Opt#1): degradation shrinks to −8.9% vs hardware-only.
* +lz4/zstd selection (Opt#2): within 2.1% of the baseline; page reads
  get ~9 µs cheaper than zstd-only while page *writes* get slower (the
  selection runs both codecs, but in the background).
"""

from repro.api.config import NodeConfig
from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import MiB
from repro.csd.specs import OPTANE_P5800X, P5510, POLARCSD2
from repro.db.database import PolarDB
from repro.storage.store import PolarStore
from repro.workloads.sysbench import prepare_table, run_sysbench

ROWS = 3000
BUFFER_POOL_PAGES = 10
#: Moderate concurrency: the ablation attributes *per-commit* costs, and
#: the group-commit pipeline largely subsumes Opt#1 at high thread counts
#: (big batches amortize dual-layer's software-compressed flushes, so the
#: bypass step stops mattering — an emergent result of the event-driven
#: commit path).  At 4 clients batches stay thin and each technique's
#: critical-path cost shows through, which is what Figure 13 isolates.
THREADS = 4
TXNS = 80

#: Technique stack, added one at a time (Opt#3 is evaluated in Fig 15).
#: Redo lives on the performance layer in every configuration except
#: "+dual-layer": that step applies software compression to *all* writes,
#: redo included, which is precisely the regression Opt#1 then removes.
STEPS = [
    ("baseline (P5510)", P5510, NodeConfig(
        software_compression=False, opt_bypass_redo=True,
        opt_algorithm_selection=False, opt_per_page_log=False,
    )),
    ("PolarCSD", POLARCSD2, NodeConfig(
        software_compression=False, opt_bypass_redo=True,
        opt_algorithm_selection=False, opt_per_page_log=False,
    )),
    ("+dual-layer", POLARCSD2, NodeConfig(
        software_compression=True, opt_bypass_redo=False,
        opt_algorithm_selection=False, opt_per_page_log=False,
    )),
    ("+bypass redo", POLARCSD2, NodeConfig(
        software_compression=True, opt_bypass_redo=True,
        opt_algorithm_selection=False, opt_per_page_log=False,
    )),
    ("+lz4/zstd", POLARCSD2, NodeConfig(
        software_compression=True, opt_bypass_redo=True,
        opt_algorithm_selection=True, opt_per_page_log=False,
        # §5.2: the evaluation forces re-selection on every update,
        # showing the worst-case page write latency.
        selection_always_evaluate=True,
    )),
]


def _span_mean(store, name):
    """Mean of a tracer-recorded span histogram, 0 when never hit."""
    hists = [h for h in store.metrics.find(name) if h.count]
    count = sum(h.count for h in hists)
    if count == 0:
        return 0.0
    return sum(h.total for h in hists) / count


def _run_step(data_spec, config, seed=5):
    store = PolarStore(
        config, data_spec=data_spec, perf_spec=OPTANE_P5800X,
        volume_bytes=128 * MiB, seed=seed,
    )
    db = PolarDB(store=store, buffer_pool_pages=BUFFER_POOL_PAGES)
    now = prepare_table(db, rows=ROWS, seed=seed)
    # Drop the load-phase samples: every latency below comes from tracer
    # span histograms accumulated over the steady-state OLTP window only.
    store.metrics.reset()
    run = run_sysbench(
        db, "read_write", duration_s=60.0, threads=THREADS,
        key_range=ROWS, start_us=now, seed=13, max_transactions=TXNS,
    )
    return {
        "tps": run.tps,
        "p95_us": run.p95_latency_us,
        # Redo path: the root span covers software compression + device
        # write + quorum wait; the child spans attribute it per technique.
        "redo_us": _span_mean(store, "trace.storage.redo_commit.total_us"),
        "redo_cpu_us": _span_mean(
            store, "trace.compression.redo_compress.self_us"
        ),
        "redo_dev_us": _span_mean(
            store, "trace.csd.redo_device_write.self_us"
        ),
        # Page path: buffer-pool miss fetch, end to end.
        "page_read_us": _span_mean(store, "trace.db.page_fetch.total_us"),
        "page_write_us": store.leader.page_write_stats.mean_us,
    }


def run_figure13():
    result = ExperimentResult(
        "fig13_ablation",
        "technique-by-technique impact on OLTP-RW (C2 hardware)",
        ["config", "tps", "tps_vs_base", "p95_us", "redo_us",
         "redo_cpu_us", "redo_dev_us", "page_read_us", "page_write_us"],
    )
    metrics = {}
    base_tps = None
    for name, spec, config in STEPS:
        m = _run_step(spec, config)
        if base_tps is None:
            base_tps = m["tps"]
        m["rel"] = m["tps"] / base_tps
        metrics[name] = m
        result.add(name, m["tps"], m["rel"], m["p95_us"], m["redo_us"],
                   m["redo_cpu_us"], m["redo_dev_us"],
                   m["page_read_us"], m["page_write_us"])
    result.note(
        "paper: CSD −7.4%; +dual −19.6% further (redo 59→79 µs); "
        "+bypass −8.9% vs CSD; +lz4/zstd −2.1% vs baseline"
    )
    print_table(result)
    save_result(result)
    return metrics


def test_fig13(run_once):
    m = run_once(run_figure13)
    # Hardware compression costs some throughput vs the plain baseline.
    assert m["PolarCSD"]["rel"] < 1.0
    # Software-compressing redo pushes redo commit latency up materially...
    assert m["+dual-layer"]["redo_us"] > m["PolarCSD"]["redo_us"] * 1.15
    # ...and the tracer spans attribute the regression: dual-layer spends
    # CPU compressing redo; bypass (and the baselines) spend none.
    assert m["+dual-layer"]["redo_cpu_us"] > 0.0
    assert m["+bypass redo"]["redo_cpu_us"] == 0.0
    assert m["PolarCSD"]["redo_cpu_us"] == 0.0
    # ...and bypass brings it back below the dual-layer level — both
    # end-to-end (arrival to quorum-durable, group-commit wait included)
    # and on the persist path itself (compress CPU + device write, the
    # paper's 79 µs → recovery).
    assert m["+bypass redo"]["redo_us"] < m["+dual-layer"]["redo_us"]
    assert (
        m["+bypass redo"]["redo_cpu_us"] + m["+bypass redo"]["redo_dev_us"]
        < m["+dual-layer"]["redo_cpu_us"] + m["+dual-layer"]["redo_dev_us"]
    )
    # Throughput recovers monotonically through the optimizations.
    assert m["+bypass redo"]["rel"] >= m["+dual-layer"]["rel"]
    assert m["+lz4/zstd"]["rel"] >= m["+bypass redo"]["rel"] - 0.03
    # Selection trades cheaper reads for dearer (background) writes.
    assert m["+lz4/zstd"]["page_read_us"] <= m["+bypass redo"]["page_read_us"]
    assert m["+lz4/zstd"]["page_write_us"] >= m["+bypass redo"]["page_write_us"]
    # End state: close to the uncompressed baseline.
    assert m["+lz4/zstd"]["rel"] > 0.85
