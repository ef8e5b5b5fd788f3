"""Figure 12: overall performance of N1/C1/N2/C2 across the seven sysbench
workloads (throughput, average latency, P95 latency).

Paper result (16 threads, I/O-bound): C1 (PolarCSD1.0, hardware-only
compression) runs ~10% below N1 (P4510); C2 (PolarCSD2.0 with the full
dual-layer stack and all optimizations) reaches parity with N2 (P5510).

The clusters, budgets and cell loop are ``repro.bench.figures.run_fig12``
(also ``python -m repro bench --fig 12``); this file owns the shape
assertions.
"""

from repro.bench.figures import mean_tps_ratio, run_fig12


def test_fig12(run_once):
    result = run_once(run_fig12)
    c1_mean = mean_tps_ratio(result, "C1", "N1")
    c2_mean = mean_tps_ratio(result, "C2", "N2")
    # C1 pays a visible but bounded penalty; C2 is near parity and closer
    # to its baseline than C1 is to its own.
    assert 0.70 < c1_mean < 1.02
    assert 0.85 < c2_mean < 1.10
    assert c2_mean > c1_mean - 0.02
    # Latency ordering mirrors throughput (no pathological config).
    avg_us = {(row[0], row[1]): row[3] for row in result.rows}
    for (workload, cluster), avg in avg_us.items():
        if cluster == "C2":
            assert avg < avg_us[(workload, "N2")] * 1.35
