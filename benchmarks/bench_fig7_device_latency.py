"""Figure 7: device latency under fio-style workloads at target compression
ratios 1.0–4.0 (16 KB I/O, queue depth 1).

Paper result: PolarCSD writes are *faster* than the same-generation Intel
SSD but reads are *slower*; both CSD latencies fall as the data gets more
compressible; plain SSDs are flat; PCIe 4.0 beats PCIe 3.0.
"""

import dataclasses

from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import KiB, MiB
from repro.csd.device import PlainSSD, PolarCSD
from repro.csd.specs import P4510, P5510, POLARCSD1, POLARCSD2
from repro.workloads.fio import buffer_with_ratio

IO_SIZE = 16 * KiB
IOS_PER_POINT = 64
RATIOS = (1.0, 2.0, 3.0, 4.0)


def _make_device(spec, seed=0):
    sized = dataclasses.replace(
        spec,
        logical_capacity=64 * MiB,
        physical_capacity=64 * MiB,
        jitter_sigma=0.0,
    )
    if sized.has_compression:
        # Keep enough NAND for incompressible runs.
        return PolarCSD(sized, seed=seed, block_capacity=1 * MiB)
    return PlainSSD(sized, seed=seed)


def _mean_us(device, name):
    """Mean of one of the device's own latency histograms."""
    return device.metrics.get(name, **device.metric_labels).mean


def _measure(spec, ratio):
    device = _make_device(spec)
    buf = buffer_with_ratio(ratio, IO_SIZE * IOS_PER_POINT, seed=7)
    now = 0.0
    # Writes, QD1.
    for i in range(IOS_PER_POINT):
        chunk = buf[i * IO_SIZE : (i + 1) * IO_SIZE]
        now = device.write(now, i * 4, chunk).done_us
    write_avg = _mean_us(device, "csd.device.write_us")
    # Reads, QD1.
    for i in range(IOS_PER_POINT):
        now = device.read(now, i * 4, IO_SIZE).done_us
    read_avg = _mean_us(device, "csd.device.read_us")
    return write_avg, read_avg


def run_figure7():
    result = ExperimentResult(
        "fig7_device_latency",
        "16KB QD1 latency vs target compression ratio",
        ["device", "ratio", "write_us", "read_us"],
    )
    measured = {}
    for spec in (P4510, POLARCSD1, P5510, POLARCSD2):
        for ratio in RATIOS:
            write_us, read_us = _measure(spec, ratio)
            result.add(spec.name, ratio, write_us, read_us)
            measured[(spec.name, ratio)] = (write_us, read_us)
    result.note("plain SSDs are flat across ratios; CSDs improve with ratio")
    print_table(result)
    save_result(result)
    return measured


def test_fig7(run_once):
    measured = run_once(run_figure7)

    def write(dev, ratio):
        return measured[(dev, ratio)][0]

    def read(dev, ratio):
        return measured[(dev, ratio)][1]

    for ratio in RATIOS:
        # CSD writes beat the matching plain SSD; CSD reads are slower.
        assert write("PolarCSD1.0", ratio) < write("Intel P4510", ratio)
        assert write("PolarCSD2.0", ratio) < write("Intel P5510", ratio)
        assert read("PolarCSD1.0", ratio) > read("Intel P4510", ratio)
        assert read("PolarCSD2.0", ratio) > read("Intel P5510", ratio)
        # Gen 2 beats gen 1 (PCIe 4.0 + lower overheads).
        assert read("PolarCSD2.0", ratio) < read("PolarCSD1.0", ratio)
    # Higher compressibility lowers CSD latency.
    for dev in ("PolarCSD1.0", "PolarCSD2.0"):
        assert read(dev, 4.0) < read(dev, 1.0)
        assert write(dev, 4.0) < write(dev, 1.0)
    # Plain SSDs are flat (within 2%).
    for dev in ("Intel P4510", "Intel P5510"):
        assert abs(read(dev, 4.0) - read(dev, 1.0)) / read(dev, 1.0) < 0.02
