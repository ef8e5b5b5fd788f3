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

This module imports nothing of ``repro`` but ``repro.common``: a client
of a ``repro serve`` deployment reads the tree without loading the
storage stack, and the stack reads its ``store.node`` section from here.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.common.units import MiB

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
class NodeConfig:
    """Feature switches matching the paper's cluster configurations
    (the ``store.node`` section).

    ``software_compression=False`` with a PolarCSD data device reproduces
    cluster C1 (hardware-only compression); all-enabled reproduces C2.
    """

    software_compression: bool = True
    opt_bypass_redo: bool = True          # Opt#1 (§3.3.1)
    opt_algorithm_selection: bool = True  # Opt#2 (§3.3.2)
    opt_per_page_log: bool = True         # Opt#3 (§3.3.3)
    #: Force Algorithm 1 to re-evaluate on every write (the paper's §5.2
    #: evaluation mode: "the update always issues the algorithm
    #: re-selection, representing the worst page write latency").
    selection_always_evaluate: bool = False
    redo_cache_bytes: int = 2 * MiB


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
        if self.store.node.redo_cache_bytes <= 0:
            raise ValueError("store.node.redo_cache_bytes must be positive")
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
        parameters without anyone noticing — and so does a leaf whose
        value is not of its field's annotated type; the message names
        the leaf's path.
        """
        return _section_from_dict(cls, "", doc or {}).validate()


def _section_from_dict(section_cls, path: str, doc):
    """``doc`` (a dict, or a ``section_cls`` taken as it is once its
    leaves pass the same checks) -> a ``section_cls`` whose every leaf
    has its annotated type."""
    if isinstance(doc, section_cls):
        _section_from_dict(section_cls, path, {
            field.name: getattr(doc, field.name)
            for field in dataclasses.fields(doc)
        })
        return doc
    if not isinstance(doc, dict):
        raise ValueError(
            f"config section {path!r} must be a dict, "
            f"got {type(doc).__name__}"
        )
    hints = typing.get_type_hints(section_cls)
    unknown = set(doc) - set(hints)
    if unknown:
        what = (f"keys in config section {path!r}" if path
                else "config sections")
        raise ValueError(
            f"unknown {what}: {sorted(unknown)}; expected {sorted(hints)}"
        )
    kwargs = {}
    for name, value in doc.items():
        leaf = f"{path}.{name}" if path else name
        hint = hints[name]
        if dataclasses.is_dataclass(hint):
            value = _section_from_dict(hint, leaf, value)
        elif not _has_type(value, hint):
            raise ValueError(
                f"config leaf {leaf!r} must be "
                f"{getattr(hint, '__name__', hint)}, got {value!r}"
            )
        kwargs[name] = value
    return section_cls(**kwargs)


def _has_type(value, hint) -> bool:
    """``Optional[T]`` takes ``None``; an ``int`` is never a ``bool``."""
    if typing.get_origin(hint) is typing.Union:
        if value is None:
            return True
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    return isinstance(value, hint) and not (
        hint is int and isinstance(value, bool)
    )
