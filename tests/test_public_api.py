"""Miscellaneous integration seams across the storage stack."""

from repro.storage.node import NodeConfig
from repro.storage.store import PolarStore
from repro.workloads.datagen import dataset_pages


def test_quick_end_to_end():
    store = PolarStore(NodeConfig(), volume_bytes=32 * 2**20)
    pages = dataset_pages("wiki", 2, seed=0)
    now = store.write_page(0.0, 1, pages[0]).commit_us
    assert store.read_page(now, 1).data == pages[0]


def test_algorithm_distribution_matches_index():
    from repro.common.units import MiB
    from repro.storage.index import CompressionInfo
    from repro.storage.store import build_node

    node = build_node("dist", NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for page_no, page in enumerate(dataset_pages("finance", 10, seed=1)):
        now = node.write_page(now, page_no, page).done_us
    distribution = {}
    for _, entry in node.index.items():
        if entry.status is CompressionInfo.NORMAL:
            distribution[entry.algorithm] = distribution.get(entry.algorithm, 0) + 1
    assert sum(distribution.values()) <= 10
    assert set(distribution) <= {"lz4", "zstd"}
    assert sum(distribution.values()) >= 8  # most finance pages compress


def test_fault_injected_device_still_round_trips():
    import dataclasses

    from repro.chaos.plan import FaultKind, FaultPlan, FaultRule
    from repro.csd.device import PolarCSD
    from repro.csd.specs import POLARCSD2
    from repro.common.units import MiB

    spec = dataclasses.replace(
        POLARCSD2, logical_capacity=32 * MiB, physical_capacity=16 * MiB,
    )
    device = PolarCSD(spec, seed=3, block_capacity=1 * MiB)
    plan = FaultPlan(seed=3)
    plan.add(FaultRule(FaultKind.SLOW_IO, probability=0.2))
    device.attach_chaos(plan.injector_for("csd"))
    data = dataset_pages("fnb", 1, seed=2)[0]
    now = 0.0
    for i in range(50):
        now = device.write(now, (i % 8) * 4, data).done_us
        now = device.read(now, (i % 8) * 4, len(data)).done_us
    assert plan.injected["slow_io"] > 0
    assert device.read(now, 0, len(data)).data == data
