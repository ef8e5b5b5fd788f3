"""Figure 16: end-to-end comparison with database-layer compression.

Paper result (Sysbench OLTP-Read-Write): PolarDB with PolarStore beats
both InnoDB table compression and MyRocks, because those engines burn
*compute-node* CPU (the resource users pay for) on codec work and space
management — InnoDB compresses/decompresses pages in the query path,
MyRocks pays compaction — while PolarStore pushes all of it into the
shared storage layer.  MyRocks's memtable is scaled to this table
(:data:`repro.baselines.lsm.MEMTABLE_BYTES`), so its LSM tree compacts
during the measured transactions, and the figure checks that it does.
"""

from repro.api.config import NodeConfig
from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import MiB
from repro.baselines.innodb import InnoDBEngine
from repro.baselines.lsm import LSMStats
from repro.baselines.myrocks import MyRocksEngine
from repro.db.database import PolarDB
from repro.workloads.sysbench import prepare_table, run_sysbench

ROWS = 2000
THREADS = 16
TXNS = 30
BUFFER_POOL_PAGES = 10


def _engines():
    polar = PolarDB(
        config=NodeConfig(), volume_bytes=128 * MiB,
        buffer_pool_pages=BUFFER_POOL_PAGES, seed=21,
    )
    innodb = InnoDBEngine(
        volume_bytes=128 * MiB, buffer_pool_pages=BUFFER_POOL_PAGES, seed=21,
    )
    return {
        "PolarDB+PolarStore": polar,
        "InnoDB (table compression)": innodb,
        "MyRocks": myrocks(),
    }


def myrocks():
    return MyRocksEngine(volume_bytes=128 * MiB, seed=21)


def run_leg(engine):
    """One engine's leg: load ``ROWS`` rows, then run ``TXNS`` measured
    transactions.  Returns the run and the compactions the engine's LSM
    tree made during it (0 for the engines without one)."""
    now = prepare_table(engine, rows=ROWS, seed=21)
    stats = engine.lsm.stats if isinstance(engine, MyRocksEngine) else LSMStats()
    loaded = stats.compactions
    run = run_sysbench(
        engine, "read_write", duration_s=60.0, threads=THREADS,
        key_range=ROWS, start_us=now, seed=17, max_transactions=TXNS,
    )
    return run, stats.compactions - loaded


def run_figure16():
    result = ExperimentResult(
        "fig16_comparison",
        "OLTP-Read-Write across compression approaches",
        ["engine", "tps", "avg_us", "p95_us"],
    )
    metrics, compactions = {}, {}
    for name, engine in _engines().items():
        run, compactions[name] = run_leg(engine)
        metrics[name] = run
        result.add(name, run.tps, run.avg_latency_us, run.p95_latency_us)
    result.note(
        "paper: PolarDB > InnoDB-compressed and MyRocks in throughput, "
        "with lower latency (compression offloaded to shared storage)"
    )
    print_table(result)
    save_result(result)
    return metrics, compactions["MyRocks"]


def test_fig16(run_once):
    metrics, myrocks_compactions = run_once(run_figure16)
    polar = metrics["PolarDB+PolarStore"]
    innodb = metrics["InnoDB (table compression)"]
    myrocks = metrics["MyRocks"]
    assert polar.tps > innodb.tps
    assert polar.tps > myrocks.tps
    assert polar.avg_latency_us < innodb.avg_latency_us
    assert myrocks_compactions >= 1
