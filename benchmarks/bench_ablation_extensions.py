"""Ablations for the §6 "Related Directions" extensions implemented here:
table-level shared dictionaries and estimation-based algorithm selection.
"""

import random

from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.compression.base import get_codec
from benchmarks.ablation.dictionary import DictionaryManager, build_dictionary
from benchmarks.ablation.estimator import EstimatingSelector, estimate_ratio
from repro.compression.selector import AlgorithmSelector
from repro.workloads.datagen import DATASETS, dataset_pages

PAGES = 12
TRAIN = 6


def run_dictionary_ablation():
    result = ExperimentResult(
        "ablation_shared_dictionary",
        "per-page zstd vs table-level shared dictionary (§6)",
        ["dataset", "plain_ratio", "dict_ratio", "gain"],
    )
    codec = get_codec("zstd")
    gains = {}
    for dataset in DATASETS:
        pages = dataset_pages(dataset, PAGES + TRAIN, seed=5)
        train, evaluate = pages[:TRAIN], pages[TRAIN:]
        dictionary = build_dictionary(train, size=4096)
        total = sum(len(p) for p in evaluate)
        plain = sum(len(codec.compress(p)) for p in evaluate)
        with_dict = sum(
            len(codec.compress(p, dictionary=dictionary)) for p in evaluate
        )
        gains[dataset] = plain / with_dict - 1
        result.add(dataset, total / plain, total / with_dict, gains[dataset])
    result.note(
        "schema-level redundancy moves into the shared dictionary, so "
        "every page stops re-encoding it (the paper's first suggested "
        "improvement)"
    )
    print_table(result)
    save_result(result)
    return gains


def test_dictionary_ablation(run_once):
    gains = run_once(run_dictionary_ablation)
    # The dictionary must help on structured datasets and never hurt much.
    assert max(gains.values()) > 0.03
    assert all(g > -0.02 for g in gains.values())


def run_estimator_ablation():
    result = ExperimentResult(
        "ablation_estimation_selection",
        "full dual-codec evaluation vs estimation-gated selection (§6)",
        ["page_mix", "full_eval_cpu_us", "estimator_cpu_us", "saving",
         "agreement"],
    )
    rows = {}
    mixes = {
        "structured (finance)": dataset_pages("finance", 10, seed=2),
        "text (wiki)": dataset_pages("wiki", 10, seed=2),
        "incompressible": [
            random.Random(seed).randbytes(16384) for seed in range(10)
        ],
        "zero-heavy": [bytes(16384) for _ in range(10)],
    }
    from repro.compression.cost import codec_cost

    both_cost = codec_cost("lz4").compress_us(16384) + codec_cost(
        "zstd"
    ).compress_us(16384)
    for label, pages in mixes.items():
        full = AlgorithmSelector()
        fast = EstimatingSelector()
        agree = 0
        fast_cpu = 0.0
        for page in pages:
            reference = full.select(page)
            decision = fast.select(page)
            if decision.codec == reference.codec:
                agree += 1
            if decision.evaluated:
                fast_cpu += both_cost
            elif decision.codec == "zstd":
                fast_cpu += codec_cost("zstd").compress_us(16384)
            else:
                fast_cpu += codec_cost("lz4").compress_us(16384)
        full_cpu = both_cost * len(pages)
        rows[label] = (full_cpu, fast_cpu, agree / len(pages))
        result.add(label, full_cpu, fast_cpu, 1 - fast_cpu / full_cpu,
                   agree / len(pages))
    result.note(
        "estimation skips codec work outside the gray zone "
        "(Harnik et al., FAST'13, as §6 suggests)"
    )
    print_table(result)
    save_result(result)
    return rows


def test_estimator_ablation(run_once):
    rows = run_once(run_estimator_ablation)
    # Clear-cut mixes save CPU with high agreement.
    full, fast, agreement = rows["incompressible"]
    assert fast < full * 0.75
    assert agreement >= 0.9
    full, fast, agreement = rows["zero-heavy"]
    assert fast < full * 0.8
    # On gray-zone pages the estimator may fall back (no big saving
    # required) but must not disagree wildly.
    assert rows["structured (finance)"][2] >= 0.5
