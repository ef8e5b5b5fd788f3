"""One typed configuration tree for the whole reproduction.

Historically every entry point grew its own kwargs plumbing: ``build_node``
took device specs and sizes, :class:`~repro.storage.store.PolarStore` took
another overlapping set, :class:`~repro.db.database.PolarDB` threaded a
third through to both, and the cluster/benchmark code re-invented all of
it per call site.  :class:`ReproConfig` replaces that with a single
dataclass tree — ``store``, ``device``, ``engine``, ``db``, ``cluster``,
``net`` sections — consumed by
:meth:`repro.api.PolarStore.open`, the CLI, and the figure benchmarks.

``from_dict``/``to_dict`` round-trip the tree through plain JSON-able
dicts (unknown keys are rejected, so a typo'd override fails loudly
instead of silently running defaults).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from repro.common.units import MiB
from repro.storage.node import NodeConfig

#: Named device specs selectable from configuration (resolved lazily so
#: the config module stays import-light).
DEVICE_SPECS = (
    "P4510",
    "P5510",
    "POLARCSD1",
    "POLARCSD2",
    "OPTANE_P4800X",
    "OPTANE_P5800X",
)


def resolve_spec(name: str):
    """Look up a :class:`repro.csd.specs.DeviceSpec` by config name."""
    if name not in DEVICE_SPECS:
        raise ValueError(
            f"unknown device spec {name!r}; options: {', '.join(DEVICE_SPECS)}"
        )
    import repro.csd.specs as specs

    return getattr(specs, name)


@dataclass
class DeviceSection:
    """Which simulated devices back each storage node."""

    #: Data device (the compressed-capacity tier).
    data_spec: str = "POLARCSD2"
    #: Performance device (WAL + Opt#1 redo).
    perf_spec: str = "OPTANE_P5800X"


@dataclass
class StoreSection:
    """One replicated PolarStore volume."""

    volume_bytes: int = 256 * MiB
    #: Physical NAND capacity; ``None`` keeps the spec's provisioning ratio.
    physical_bytes: Optional[int] = None
    seed: int = 0
    #: Per-node feature switches (§3's optimizations).
    node: NodeConfig = field(default_factory=NodeConfig)


@dataclass
class EngineSection:
    """Discrete-event kernel binding (PR 3's concurrency runtime)."""

    #: Bind the stack to a shared event kernel at open time; operations
    #: then dispatch through the engine-native ``*_proc`` paths.
    enabled: bool = False
    #: Bank GC work and drain it from an engine daemon.
    defer_gc: bool = False


@dataclass
class DbSection:
    """Compute layer sitting on the volume."""

    buffer_pool_pages: int = 256
    ro_nodes: int = 1


@dataclass
class ClusterSection:
    """Sharded serving layer (``repro.cluster.runtime``).

    ``shards >= 2`` makes :meth:`repro.api.PolarStore.open` build a
    :class:`~repro.cluster.runtime.ClusterRuntime` — N replica groups on
    one shared engine — instead of a single volume.
    """

    shards: int = 0


@dataclass
class NetSection:
    """Serving layer (``repro.net``): the socket server front-end.

    Consumed by ``python -m repro serve`` and
    :class:`repro.net.server.PolarStoreServer`; irrelevant (and
    harmless) for purely in-process deployments.
    """

    host: str = "127.0.0.1"
    port: int = 7411
    #: Server-side admission window: ops in flight *in simulated time*
    #: beyond this are rejected, not queued (open-loop load shedding).
    #: Evaluated at simulated arrival instants, so rejection decisions
    #: are deterministic for a seeded request stream.
    window: int = 64


@dataclass
class ReproConfig:
    """The full configuration tree."""

    store: StoreSection = field(default_factory=StoreSection)
    device: DeviceSection = field(default_factory=DeviceSection)
    engine: EngineSection = field(default_factory=EngineSection)
    db: DbSection = field(default_factory=DbSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    net: NetSection = field(default_factory=NetSection)

    # -- validation --------------------------------------------------------

    def validate(self) -> "ReproConfig":
        if self.store.volume_bytes <= 0:
            raise ValueError("store.volume_bytes must be positive")
        if self.cluster.shards < 0:
            raise ValueError("cluster.shards cannot be negative")
        if self.cluster.shards == 1:
            raise ValueError(
                "cluster.shards == 1 is ambiguous: use 0 for a single "
                "volume or >= 2 for a sharded runtime"
            )
        if self.net.window < 1:
            raise ValueError("net.window must be at least 1")
        if not 0 <= self.net.port < 65536:
            raise ValueError("net.port must be in [0, 65535]")
        resolve_spec(self.device.data_spec)
        resolve_spec(self.device.perf_spec)
        return self

    # -- dict round-trip ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-able dict (the exact shape ``from_dict`` accepts)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Optional[Dict[str, Any]]) -> "ReproConfig":
        """Build a config from a (possibly partial) nested dict.

        Unknown section or field names raise ``ValueError`` — silent
        acceptance of a typo'd key is how experiments run with the wrong
        parameters without anyone noticing.
        """
        doc = dict(doc or {})
        sections = {f.name: f for f in fields(cls)}
        unknown = set(doc) - set(sections)
        if unknown:
            raise ValueError(
                f"unknown config sections: {sorted(unknown)}; "
                f"expected {sorted(sections)}"
            )
        kwargs = {}
        for name, section_field in sections.items():
            section_cls = section_field.default_factory  # type: ignore[misc]
            sub = doc.get(name, {})
            if dataclasses.is_dataclass(sub):
                kwargs[name] = sub
                continue
            kwargs[name] = _section_from_dict(section_cls, name, sub)
        return cls(**kwargs).validate()


def _section_from_dict(section_cls, section_name: str, doc: Dict[str, Any]):
    if not isinstance(doc, dict):
        raise ValueError(
            f"config section {section_name!r} must be a dict, "
            f"got {type(doc).__name__}"
        )
    allowed = {f.name for f in fields(section_cls)}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(
            f"unknown keys in config section {section_name!r}: "
            f"{sorted(unknown)}; expected {sorted(allowed)}"
        )
    kwargs = dict(doc)
    # The one nested dataclass below section level: store.node.
    if section_cls is StoreSection and isinstance(kwargs.get("node"), dict):
        node_doc = kwargs["node"]
        node_allowed = {f.name for f in fields(NodeConfig)}
        node_unknown = set(node_doc) - node_allowed
        if node_unknown:
            raise ValueError(
                f"unknown keys in config section 'store.node': "
                f"{sorted(node_unknown)}; expected {sorted(node_allowed)}"
            )
        kwargs["node"] = NodeConfig(**node_doc)
    return section_cls(**kwargs)
