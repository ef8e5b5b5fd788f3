#!/usr/bin/env python
"""Algorithm 1 in action: adaptive lz4/zstd selection per page.

Shows why the choice is not a fixed trade-off: for some pages zstd's
extra squeeze saves a whole 4 KB I/O block (worth ~12-14us of read
latency), for others it only costs decompression time.  The selector
weighs bytes-saved against extra microseconds at the paper's 300 B/us
threshold.

Run:  python examples/adaptive_compression.py
"""

from repro.common.units import LBA_SIZE
from repro.compression.memo import get_codec
from repro.compression.selector import AlgorithmSelector
from repro.workloads.datagen import DATASETS, dataset_pages


def main() -> None:
    selector = AlgorithmSelector()
    print(f"{'dataset':<14} {'page':>4} {'lz4':>7} {'zstd':>7} "
          f"{'benefit':>8} {'overhead':>9} {'choice':>7}")
    totals = {}
    for name in DATASETS:
        picks = []
        for page_no, page in enumerate(dataset_pages(name, 8, seed=4)):
            decision = selector.select(page)
            picks.append(decision.codec)
            if page_no < 3:
                lz4_len = len(get_codec("lz4").compress(page))
                zstd_len = len(get_codec("zstd").compress(page))
                print(f"{name:<14} {page_no:>4} {lz4_len:>7} {zstd_len:>7} "
                      f"{decision.benefit_bytes:>7.0f}B "
                      f"{decision.overhead_us:>8.1f}us "
                      f"{decision.codec:>7}")
        totals[name] = picks.count("zstd") / len(picks)

    print("\nzstd share per dataset (Table 3 of the paper):")
    paper = {"finance": "73.1%", "fnb": "41.3%", "wiki": "52.4%",
             "air_transport": "51.6%"}
    for name, share in totals.items():
        print(f"  {name:<14} {share:>5.0%}   (paper: {paper[name]})")

    # The CPU gate: under load, the selector doesn't even evaluate.
    busy = selector.select(dataset_pages("wiki", 1, seed=9)[0],
                           cpu_utilization=0.5)
    print(f"\nat 50% CPU the selector skips evaluation and uses "
          f"{busy.codec} (evaluated={busy.evaluated})")

    # The update gate: small updates stick with the page's last codec.
    page = dataset_pages("wiki", 1, seed=10)[0]
    first = selector.select(page)
    small_update = selector.select(page, update_percent=0.05,
                                   last_used=first.codec)
    print(f"a 5% update reuses the previous codec: {small_update.codec} "
          f"(evaluated={small_update.evaluated})")


if __name__ == "__main__":
    main()
