"""§4.1.1 quantified: why gen-1 clusters had to disable software
compression and drop to 10 devices per host.

PolarCSD1.0's host-based FTL dedicates ~2 physical cores per device and
15.36 GB of DRAM per device.  On a 32-core host with 12 devices that
leaves 8 cores for the entire storage software; adding software
compression (tens of µs of codec CPU per page write) onto those starved
cores queues catastrophically.  The gen-1 mitigation (10 devices, no
software compression) and the gen-2 fix (device-managed FTL: all 32 cores
back) both fall out of the model.
"""

import random

from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.latency import LatencyStats
from repro.common.units import GiB
from repro.compression.cost import codec_cost
from benchmarks.ablation.host_ftl import contention_risk, host_ftl_footprint
from repro.csd.specs import POLARCSD1, POLARCSD2
from repro.engine import ResourcePool

HOST_CORES = 32
HOST_DRAM = 256 * GiB
#: Per-page-write software work besides compression (checksums, RPC,
#: allocator + index updates), in µs.
BASE_SOFTWARE_US = 12.0
#: Page writes arriving per second per host under production load.
ARRIVALS_PER_S = 220_000.0

SCENARIOS = [
    ("gen1: 12 devices + software compression", POLARCSD1, 12, True),
    ("gen1: 12 devices, no software compr.", POLARCSD1, 12, False),
    ("gen1 mitigation: 10 devices, no compr.", POLARCSD1, 10, False),
    ("gen2: 12 devices + software compression", POLARCSD2, 12, True),
]


def _simulate(spec, devices, software_compression, seed=1):
    footprint = host_ftl_footprint(spec, devices)
    free_cores = max(1, HOST_CORES - footprint.cpu_cores)
    cpu = ResourcePool("host-cpu", free_cores)
    rng = random.Random(seed)
    stats = LatencyStats()
    now = 0.0
    interarrival_us = 1e6 / ARRIVALS_PER_S
    compress_us = codec_cost("lz4").compress_us(16 * 1024)
    for _ in range(4000):
        now += rng.expovariate(1.0) * interarrival_us
        service = BASE_SOFTWARE_US
        if software_compression:
            service += compress_us
        done = cpu.serve(now, service)
        stats.record(done - now)
    risk = contention_risk(footprint, HOST_DRAM, HOST_CORES)
    return stats, free_cores, risk


def run_contention():
    result = ExperimentResult(
        "gen1_contention",
        "host-FTL resource contention vs software compression",
        ["scenario", "free_cores", "dram_risk", "avg_us", "p99_us"],
    )
    rows = {}
    for label, spec, devices, compression in SCENARIOS:
        stats, free_cores, risk = _simulate(spec, devices, compression)
        rows[label] = (stats.mean_us, stats.p99_us, free_cores)
        result.add(label, free_cores, risk, stats.mean_us, stats.p99_us)
    result.note(
        "gen-1 + software compression saturates the few cores the host-"
        "FTL leaves over; the paper's mitigation (10 devices, compression "
        "off) and gen-2's device-managed FTL both restore headroom"
    )
    print_table(result)
    save_result(result)
    return rows


def test_gen1_contention(run_once):
    rows = run_once(run_contention)
    full = rows["gen1: 12 devices + software compression"]
    no_compr = rows["gen1: 12 devices, no software compr."]
    mitigated = rows["gen1 mitigation: 10 devices, no compr."]
    gen2 = rows["gen2: 12 devices + software compression"]
    # Software compression on the starved gen-1 host explodes latency.
    assert full[1] > no_compr[1] * 5
    # The paper's mitigation keeps things sane.
    assert mitigated[1] < full[1] / 5
    # Gen-2 runs software compression with all cores available, cheaply.
    assert gen2[2] == HOST_CORES
    assert gen2[1] < full[1]
