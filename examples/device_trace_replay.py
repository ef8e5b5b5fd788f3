#!/usr/bin/env python
"""Replaying a block trace against every simulated device.

Generates a skewed 70/30 read/write trace with fio-style compressible
payloads and replays it against the four device models of Figure 7 plus
an Optane performance device — showing where each one wins.

Run:  python examples/device_trace_replay.py
"""

import dataclasses

from repro.common.units import MiB
from repro.csd.device import PlainSSD, PolarCSD
from repro.csd.specs import (
    OPTANE_P5800X,
    P4510,
    P5510,
    POLARCSD1,
    POLARCSD2,
)
from block_trace import generate_trace, prefill, replay_trace


def make_device(spec):
    sized = dataclasses.replace(
        spec,
        logical_capacity=256 * MiB,
        physical_capacity=(64 if spec.has_compression else 256) * MiB,
        jitter_sigma=0.0,
    )
    if sized.has_compression:
        return PolarCSD(sized, block_capacity=1 * MiB)
    return PlainSSD(sized)


def main() -> None:
    trace = generate_trace(
        n_ios=600, read_fraction=0.7, lba_space=1024, zipf_s=0.9,
        mean_interarrival_us=2000.0, seed=11,
    )
    print(f"trace: {len(trace)} I/Os, 70% reads, zipf 0.9, "
          "compressibility 2.5\n")
    print(f"{'device':<22} {'read avg':>9} {'read p95':>9} "
          f"{'write avg':>10} {'physical':>9}")
    for spec in (P4510, POLARCSD1, P5510, POLARCSD2, OPTANE_P5800X):
        device = make_device(spec)
        fill_done = prefill(device, trace, compressibility=2.5)
        report = replay_trace(
            device, trace, compressibility=2.5, assume_prefilled=True,
            time_offset_us=fill_done,
        )
        physical = getattr(device, "physical_used_bytes", 0)
        print(f"{spec.name:<22} {report.reads.mean_us:>7.1f}us "
              f"{report.reads.p95_us:>7.1f}us "
              f"{report.writes.mean_us:>8.1f}us "
              f"{physical / MiB:>7.1f}MB")
    print("\nPolarCSDs: fastest writes + least NAND; Optane: fastest "
          "everything but smallest and most expensive — hence the redo "
          "bypass design (Opt#1).")


if __name__ == "__main__":
    main()
