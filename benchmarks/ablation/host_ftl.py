"""Host-based FTL resource accounting (PolarCSD1.0, §4.1.1).

The first-generation device ran its FTL on the host (open-channel
architecture).  This module captures the arithmetic the paper reports and
the host-level deployment constraints that followed:

* each 7.68 TB device needs ``7.68 TB / 4 KB × 8 B = 15.36 GB`` of host
  DRAM for its variable-length mapping table;
* 12 devices per host consume ≈184.32 GB of DRAM and ~24 dedicated
  physical CPU cores (2 per device);
* the contention this causes is why software compression had to be
  disabled on gen-1 clusters and deployment was limited to 10 devices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import GiB
from repro.csd.mapping import ftl_dram_bytes
from repro.csd.specs import DeviceSpec

#: Dedicated physical cores per host-managed device (§4.1.1).
CPU_CORES_PER_DEVICE = 2


@dataclass(frozen=True)
class HostFootprint:
    """Host resources consumed by host-based FTLs."""

    devices: int
    dram_bytes: int
    cpu_cores: int

    @property
    def dram_gib(self) -> float:
        return self.dram_bytes / GiB


def host_ftl_footprint(
    spec: DeviceSpec, devices: int, entry_bytes: int = 8
) -> HostFootprint:
    """Resources the host must dedicate to run ``devices`` FTL instances."""
    if not spec.host_managed_ftl:
        return HostFootprint(devices, 0, 0)
    per_device = ftl_dram_bytes(spec.logical_capacity, entry_bytes)
    return HostFootprint(
        devices=devices,
        dram_bytes=per_device * devices,
        cpu_cores=CPU_CORES_PER_DEVICE * devices,
    )


def contention_risk(
    footprint: HostFootprint, host_dram_bytes: int, host_cores: int
) -> float:
    """A [0, 1] score of how much of the host the FTL consumes.

    Values near 1 correspond to the contention regime that caused the
    slow-I/O incidents in §4.1.1; the gen-1 mitigation (10 devices/host,
    software compression disabled) reduced exactly this.
    """
    if host_dram_bytes <= 0 or host_cores <= 0:
        raise ValueError("host resources must be positive")
    dram_share = footprint.dram_bytes / host_dram_bytes
    cpu_share = footprint.cpu_cores / host_cores
    return min(1.0, max(dram_share, cpu_share))
