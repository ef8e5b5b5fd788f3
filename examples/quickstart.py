#!/usr/bin/env python
"""Quickstart: a replicated PolarStore volume with dual-layer compression.

Creates a three-replica PolarStore volume on simulated PolarCSD2.0
devices, writes database pages through the software compression layer,
reads them back, and prints the space accounting of both compression
layers.

Run:  python examples/quickstart.py
"""

from repro.api.config import NodeConfig
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.storage.store import CompressionMode, PolarStore
from repro.workloads.datagen import dataset_pages


def main() -> None:
    # A replicated volume: 1 leader + 2 followers, all features on.
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=1)

    # Write 32 "finance" pages through the normal dual-layer write path:
    # the software layer picks lz4 or zstd per page (Algorithm 1) and
    # packs the result into 4 KB blocks; the simulated PolarCSD then
    # compresses each block again in hardware.
    pages = dataset_pages("finance", 32, seed=0)
    now = 0.0
    for page_no, page in enumerate(pages):
        committed = store.write_page(now, page_no, page)
        now = committed.commit_us
    print(f"wrote {len(pages)} pages; last commit at t={now:.0f}us (simulated)")

    # Read one back — decompression is transparent.
    result = store.read_page(now, 7)
    assert result.data == pages[7]
    print(f"read page 7 in {result.done_us - now:.1f}us "
          f"({result.io_reads} I/O)")

    # One page stored raw, bypassing software compression (mode flag).
    store.write_page(now, 100, pages[0], mode=CompressionMode.NONE)

    # Archive a cold range with heavy compression (one big segment).
    store.archive_range(now + 1e6, list(range(8)))
    check = store.read_page(now + 2e6, 3)
    assert check.data == pages[3]
    print("archived pages 0-7 as a heavy-compression segment; reads still "
          "round-trip")

    # Space accounting across the two layers.
    leader = store.leader
    logical = leader.logical_used_bytes
    software = leader.device_used_bytes       # 4 KB-aligned blocks
    physical = leader.physical_used_bytes     # NAND bytes after hw gzip
    print(f"\nlogical data:     {logical / DB_PAGE_SIZE:.0f} pages "
          f"({logical // 1024} KiB)")
    print(f"after software:   {software // 1024} KiB in 4 KiB blocks")
    print(f"after hardware:   {physical // 1024} KiB of NAND")
    print(f"dual-layer compression ratio: {store.compression_ratio():.2f}x")


if __name__ == "__main__":
    main()
