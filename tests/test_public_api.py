"""Top-level package API and miscellaneous integration seams."""

import random

import pytest

import repro


def test_lazy_public_exports():
    assert repro.PolarStore.__name__ == "PolarStore"
    assert repro.NodeConfig.__name__ == "NodeConfig"
    assert repro.PolarDB.__name__ == "PolarDB"
    assert callable(repro.run_sysbench)
    assert "PolarCSD" in dir(repro)
    with pytest.raises(AttributeError):
        repro.NotAThing


def test_quick_end_to_end_via_exports():
    store = repro.PolarStore(repro.NodeConfig(), volume_bytes=32 * 2**20)
    pages = repro.dataset_pages("wiki", 2, seed=0)
    now = store.write_page(0.0, 1, pages[0]).commit_us
    assert store.read_page(now, 1).data == pages[0]


def test_algorithm_distribution_matches_index():
    from repro.common.units import MiB
    from repro.storage.store import build_node

    node = build_node("dist", repro.NodeConfig(), volume_bytes=64 * MiB)
    now = 0.0
    for page_no, page in enumerate(repro.dataset_pages("finance", 10, seed=1)):
        now = node.write_page(now, page_no, page).done_us
    distribution = node.algorithm_distribution()
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
    data = repro.dataset_pages("fnb", 1, seed=2)[0]
    now = 0.0
    for i in range(50):
        now = device.write(now, (i % 8) * 4, data).done_us
        now = device.read(now, (i % 8) * 4, len(data)).done_us
    assert plan.injected["slow_io"] > 0
    assert device.read(now, 0, len(data)).data == data
