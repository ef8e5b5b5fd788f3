"""The redo-block window: a node keeps its last ``REDO_BLOCK_WINDOW`` redo
batches on the device that holds them (the performance device with Opt#1,
else the data device) and trims the older ones.  Recovery replays
``durable_redo_blobs``, so it must not notice what was trimmed.
"""

import dataclasses

import pytest

from repro.api.config import NodeConfig
from repro.common.errors import DeviceError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.storage.node import StorageNode
from repro.storage.recovery import recover_node
from repro.storage.redo import RedoRecord, encode_records
from repro.storage.store import build_node

WINDOW = StorageNode.REDO_BLOCK_WINDOW
BATCHES = 3 * WINDOW
PAGES = 8


def run(bypass, window=WINDOW):
    """Write ``PAGES`` pages, then persist and cache ``BATCHES`` one-record
    redo batches, consolidating once after the first ``WINDOW``.  Returns
    the node, the end time, and each batch persisted after that
    consolidation as ``(lba, padded bytes)`` on the redo device.

    Without Opt#1 the data-device batches go raw: the software layer's
    16 KB log-window compression would cost seconds here and does not
    touch the block lifecycle."""
    config = NodeConfig(opt_bypass_redo=bypass, software_compression=bypass)
    node = build_node("w", config, volume_bytes=64 * MiB)
    node.REDO_BLOCK_WINDOW = window
    device = node.perf_device if bypass else node.data_device
    now = 0.0
    for page_no in range(PAGES):
        page = bytes([page_no + 1]) * DB_PAGE_SIZE
        now = node.write_page(now, page_no, page).done_us
    placed = []
    write = device.write

    def spy(start_us, lba, data):
        placed.append((lba, data))
        return write(start_us, lba, data)

    for i in range(BATCHES):
        if i == WINDOW:
            now = node.consolidate_pending(now)
            device.write = spy
        records = [RedoRecord(i + 1, i % PAGES, (i * 37) % 4000,
                              b"batch-%06d" % i)]
        now = node.persist_redo(now, encode_records(records))
        now = node.add_redo(now, records)
    del device.write
    return node, now, placed


def resident(device, placed):
    """How many of the ``placed`` batches the device still holds."""
    count = 0
    for lba, data in placed:
        try:
            held = device.read(0.0, lba, len(data)).data
        except DeviceError:
            continue
        count += held == data
    return count


@pytest.mark.parametrize("bypass", [True, False], ids=["perf", "data"])
def test_redo_blocks_stay_within_the_window(bypass):
    node, _, placed = run(bypass)
    device = node.perf_device if bypass else node.data_device
    assert len(placed) == BATCHES - WINDOW
    assert resident(device, placed) == WINDOW


@pytest.mark.parametrize("bypass", [True, False], ids=["perf", "data"])
def test_recovery_does_not_need_trimmed_redo_blocks(bypass):
    trimmed, now, _ = run(bypass)
    kept, _, placed = run(bypass, window=BATCHES + 1)
    device = kept.perf_device if bypass else kept.data_device
    assert resident(device, placed) == len(placed)
    a, b = recover_node(trimmed), recover_node(kept)

    def entries(node):
        # A data-device redo block freed by the window is reused by a
        # later page write, so only the LBAs may differ.
        return {
            page_no: dataclasses.replace(entry, lba=0)
            for page_no, entry in node.index.items()
        }

    assert entries(a) == entries(b)
    assert a.redo_cache == b.redo_cache
    assert sum(map(len, a.redo_cache.values())) == BATCHES - WINDOW
    for page_no in range(PAGES):
        assert a.read_page(now, page_no).data == b.read_page(now, page_no).data


@pytest.mark.parametrize("bypass", [True, False], ids=["perf", "data"])
def test_recovered_node_goes_on_recycling_the_window(bypass):
    """The rebuilt node takes over the crashed node's window: its blocks
    are trimmed (and, on the data device, freed) as new batches land, so
    neither the device nor the allocator keeps them across a crash."""
    node, now, placed = run(bypass)
    device = node.perf_device if bypass else node.data_device
    used = node.space.used_bytes
    held = len(device._blocks)
    recovered = recover_node(node)
    assert recovered.space.used_bytes == used
    for i in range(WINDOW):
        records = [RedoRecord(BATCHES + i + 1, i % PAGES, 0, b"after")]
        now = recovered.persist_redo(now, encode_records(records))
    assert resident(device, placed) == 0
    assert recovered.space.used_bytes == used
    assert len(device._blocks) == held
