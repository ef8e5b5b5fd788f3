"""The pre-engine analytic queue, kept as a differential reference.

``repro.common.clock`` used to define these two classes; every caller
now uses :class:`repro.engine.resources.Resource`, whose ``serve`` must keep
reproducing this arithmetic exactly (``test_resources.py`` compares the
two call for call).
"""

from typing import List


class Resource:
    """A single-server FIFO queue used to model contention.

    ``serve(start_us, service_us)`` returns the completion time of a request
    that arrives at ``start_us`` and needs ``service_us`` of exclusive
    service.  Requests queue behind whatever the resource is already doing,
    which is how queue-depth effects and device busy time emerge in the
    simulation.
    """

    def __init__(self, name: str = "resource") -> None:
        self.name = name
        self._busy_until_us = 0.0

    @property
    def busy_until_us(self) -> float:
        return self._busy_until_us

    def serve(self, start_us: float, service_us: float) -> float:
        """Queue a request; return its completion time in microseconds."""
        if service_us < 0:
            raise ValueError(f"negative service time {service_us}")
        begin = max(start_us, self._busy_until_us)
        end = begin + service_us
        self._busy_until_us = end
        return end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, busy_until={self._busy_until_us:.1f})"


class ResourcePool:
    """``k`` identical servers; requests go to the earliest-free one.

    Models multi-channel NAND, multi-core FTL processors, and replica fan-out
    without a full event queue.
    """

    def __init__(self, name: str, servers: int) -> None:
        if servers <= 0:
            raise ValueError(f"need at least one server, got {servers}")
        self.name = name
        self._servers: List[Resource] = [
            Resource(f"{name}[{i}]") for i in range(servers)
        ]

    def serve(self, start_us: float, service_us: float) -> float:
        server = min(self._servers, key=lambda s: s.busy_until_us)
        return server.serve(start_us, service_us)

    @property
    def servers(self) -> List[Resource]:
        return list(self._servers)
