"""Figure 5: lz4 vs zstd — decompression latency, software-level ratio,
and the dual-layer twist.

Paper result: (a) zstd decompression is slower; (b) zstd's software-level
compression advantage is large (58.9%); (c) after the hardware gzip stage
the advantage collapses to 9.0%, because gzip re-compresses lz4's
entropy-free output but gains nothing on zstd's.
"""

import zlib

from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import KiB, LBA_SIZE, align_up
from repro.compression.memo import get_codec
from repro.compression.cost import LZ4_COST, ZSTD_COST
from repro.workloads.datagen import DATASETS, dataset_pages

PAGES = 12


def _hw_physical(payload: bytes) -> int:
    """Physical bytes after the in-storage gzip pass over 4 KB LBAs."""
    padded = payload + b"\x00" * (align_up(len(payload), LBA_SIZE) - len(payload))
    total = 0
    for start in range(0, len(padded), LBA_SIZE):
        block = padded[start : start + LBA_SIZE]
        total += min(len(zlib.compress(block, 5)), LBA_SIZE)
    return total


def run_figure5():
    lz4 = get_codec("lz4")
    zstd = get_codec("zstd")

    result = ExperimentResult(
        "fig5_algorithms",
        "lz4 vs zstd: latency, software ratio, dual-layer ratio",
        ["panel", "config", "lz4", "zstd", "zstd_advantage"],
    )

    # (a) decompression latency (calibrated cost model), µs.
    for size in (4 * KiB, 8 * KiB, 16 * KiB):
        lz4_us = LZ4_COST.decompress_us(size)
        zstd_us = ZSTD_COST.decompress_us(size)
        result.add(
            "a", f"decompress {size // KiB}KB (us)", lz4_us, zstd_us,
            zstd_us / lz4_us - 1.0,
        )

    # (b)+(c): per dataset, software ratio and dual-layer ratio.
    soft_adv = []
    dual_adv = []
    for name in DATASETS:
        pages = dataset_pages(name, PAGES, seed=2)
        total = sum(len(p) for p in pages)
        lz4_soft = sum(len(lz4.compress(p)) for p in pages)
        zstd_soft = sum(len(zstd.compress(p)) for p in pages)
        result.add(
            "b", f"software ratio [{name}]", total / lz4_soft,
            total / zstd_soft, lz4_soft / zstd_soft - 1.0,
        )
        soft_adv.append(lz4_soft / zstd_soft - 1.0)
        lz4_dual = sum(_hw_physical(lz4.compress(p)) for p in pages)
        zstd_dual = sum(_hw_physical(zstd.compress(p)) for p in pages)
        result.add(
            "c", f"dual-layer ratio [{name}]", total / lz4_dual,
            total / zstd_dual, lz4_dual / zstd_dual - 1.0,
        )
        dual_adv.append(lz4_dual / zstd_dual - 1.0)

    mean_soft = sum(soft_adv) / len(soft_adv)
    mean_dual = sum(dual_adv) / len(dual_adv)
    result.note(
        f"zstd advantage: {mean_soft:.1%} at the software level -> "
        f"{mean_dual:.1%} after hardware gzip "
        "(paper: 58.9% -> 9.0%)"
    )
    print_table(result)
    save_result(result)
    return result, mean_soft, mean_dual


def test_fig5(run_once):
    result, mean_soft, mean_dual = run_once(run_figure5)
    # (a) zstd decompression is always slower.
    for row in result.rows:
        if row[0] == "a":
            assert row[3] > row[2]
    # (b) zstd compresses better everywhere.
    for row in result.rows:
        if row[0] == "b":
            assert row[3] > row[2]
    # (c) the dual-layer stage shrinks zstd's advantage dramatically.
    assert mean_soft > 0.25
    assert mean_dual < mean_soft / 2.5
