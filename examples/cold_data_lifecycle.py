#!/usr/bin/env python
"""The cold-data lifecycle: normal -> heavy -> object storage -> crash.

Walks one dataset through every space-saving tier the system offers and
finishes with a crash recovery, printing space and latency at each step:

1. normal dual-layer compression (hot data),
2. heavy compression (warm archival, still local, §3.2.3),
3. object-storage tiering (cold archival, §6),
4. WAL crash recovery of the storage node.

Run:  python examples/cold_data_lifecycle.py
"""

from repro.common.units import DB_PAGE_SIZE, MiB
from repro.storage.node import NodeConfig
from repro.storage.recovery import recover_node
from repro.storage.store import build_node
from tiering import ObjectStore, TieringManager
from repro.workloads.datagen import dataset_pages


def space(node, label):
    print(f"  [{label}] logical {node.logical_used_bytes // 1024:5d} KiB | "
          f"device {node.device_used_bytes // 1024:5d} KiB | "
          f"NAND {node.physical_used_bytes // 1024:5d} KiB")


def main() -> None:
    node = build_node("lifecycle", NodeConfig(), volume_bytes=64 * MiB)
    tiering = TieringManager(node, ObjectStore())
    pages = dataset_pages("finance", 24, seed=6)

    print("1) hot: normal dual-layer writes")
    now = 0.0
    for page_no, page in enumerate(pages):
        now = node.write_page(now, page_no, page).done_us
    space(node, "normal")
    hot = node.read_page(now, 2)
    print(f"   hot read: {hot.done_us - now:.0f}us")

    print("\n2) warm: heavy-compress pages 0-11 (local archive)")
    now = node.archive_range(now, list(range(12)))
    space(node, "heavy")
    warm = node.read_page(now, 2)
    print(f"   warm read (whole-segment decompress, buffered after): "
          f"{warm.done_us - now:.0f}us")

    print("\n3) cold: tier pages 12-23 to object storage")
    archived, now = tiering.archive_to_object_store(now, list(range(12, 24)))
    space(node, "tiered")
    print(f"   object: {archived.compressed_len // 1024} KiB for "
          f"{len(archived.page_nos)} pages "
          f"({12 * DB_PAGE_SIZE / archived.compressed_len:.1f}x)")
    cold = tiering.read_page(now, 15)
    print(f"   cold read from object storage: "
          f"{(cold.done_us - now) / 1000:.1f}ms")
    assert cold.data == pages[15]

    print("\n4) crash: rebuild the node from its WAL")
    recovered = recover_node(node)
    check = recovered.read_page(now, 2)
    assert check.data == pages[2]
    print(f"   recovered {len(recovered.index)} index entries; "
          f"page 2 reads correctly")
    space(recovered, "recovered")


if __name__ == "__main__":
    main()
