"""Table 2: cluster configurations, compression ratios, and storage cost.

Paper result: C1 (PolarCSD1.0, hardware-only) reaches ratio 2.35 and
logical cost 0.62; C2 (PolarCSD2.0 + software) reaches 3.55 and 0.37 —
about 60% below the N2 baseline (0.91).

The compression ratios here are *measured* by loading the four synthetic
datasets through the full write path of each cluster configuration; the
hardware cost constants come from the paper.
"""

from repro.api.config import NodeConfig
from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.cluster.costs import DEVICE_COSTS, storage_cost_reduction
from repro.common.units import MiB
from repro.csd.specs import P4510, P5510, POLARCSD1, POLARCSD2
from repro.storage.store import build_node
from repro.workloads.datagen import DATASETS, dataset_pages

PAGES_PER_DATASET = 10

CONFIGS = {
    "N1": (P4510, None, 1.0),
    "C1": (POLARCSD1, NodeConfig(
        software_compression=False,
        opt_algorithm_selection=False,
        opt_per_page_log=False,
    ), 2.35),
    "N2": (P5510, None, 1.0),
    "C2": (POLARCSD2, NodeConfig(), 3.55),
}


def _measured_ratio(spec, config):
    if config is None:
        return 1.0
    node = build_node("bench", config, data_spec=spec, volume_bytes=128 * MiB)
    now = 0.0
    page_no = 0
    for name in DATASETS:
        for page in dataset_pages(name, PAGES_PER_DATASET, seed=5):
            now = node.write_page(now, page_no, page).done_us
            page_no += 1
    return node.compression_ratio()


def run_table2():
    result = ExperimentResult(
        "table2_costs",
        "cluster configurations, ratios, and cost per GB",
        ["cluster", "hardware", "ratio_measured", "ratio_paper",
         "cost_physical", "cost_logical"],
    )
    measured = {}
    for cluster, (spec, config, paper_ratio) in CONFIGS.items():
        ratio = _measured_ratio(spec, config)
        cost_key = spec.name.replace("Intel ", "")
        physical = DEVICE_COSTS[cost_key].cost_per_physical_gb
        logical = DEVICE_COSTS[cost_key].logical_cost(max(ratio, 1.0))
        measured[cluster] = (ratio, logical)
        result.add(cluster, spec.name, ratio, paper_ratio, physical, logical)
    saving = storage_cost_reduction("P5510", "PolarCSD2.0", measured["C2"][0])
    result.note(
        f"C2 storage cost reduction vs N2: {saving:.0%} (paper: ~60%)"
    )
    print_table(result)
    save_result(result)
    return measured, saving


def test_table2(run_once):
    measured, saving = run_once(run_table2)
    # Hardware-only compresses (C1) and dual-layer compresses more (C2).
    assert measured["C1"][0] > 1.8
    assert measured["C2"][0] > measured["C1"][0]
    # The cost ordering of Table 2: C2 < C1 < N2 <= N1 per logical GB.
    assert measured["C2"][1] < measured["C1"][1] < 0.92
    assert saving > 0.40
