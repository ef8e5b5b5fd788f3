"""repro.api — the unified client facade over the reproduction stack.

``PolarStore.open(config)`` is the in-process front door and
``PolarStore.connect(addr)`` the network one; both return the same
:class:`PolarStoreClient` riding on a :class:`Transport` (local
execution or the ``repro.net`` wire protocol).  Everything else here is
the typed configuration tree they consume and the config-driven
constructors they delegate to.
"""

from repro.api.client import PolarStore, PolarStoreClient
from repro.api.config import (
    ClusterSection,
    DbSection,
    DeviceSection,
    EngineSection,
    NetSection,
    ReproConfig,
    StoreSection,
    resolve_spec,
)
from repro.api.factory import build_cluster, build_db, build_store
from repro.api.transport import (
    AdmissionError,
    LocalTransport,
    Transport,
    TransportCapabilityError,
    TransportError,
    TransportTimeout,
)
from repro.common.ops import TRANSPORT_OPS

__all__ = [
    "PolarStore",
    "PolarStoreClient",
    "ReproConfig",
    "StoreSection",
    "DeviceSection",
    "EngineSection",
    "DbSection",
    "ClusterSection",
    "NetSection",
    "resolve_spec",
    "build_store",
    "build_db",
    "build_cluster",
    "Transport",
    "LocalTransport",
    "TransportError",
    "TransportCapabilityError",
    "AdmissionError",
    "TransportTimeout",
    "TRANSPORT_OPS",
]
