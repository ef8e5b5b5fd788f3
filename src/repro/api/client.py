"""The unified PolarStore client facade.

:meth:`PolarStore.open` is the in-process front door: it takes one
:class:`~repro.api.config.ReproConfig` (or the equivalent nested dict)
and returns a typed :class:`PolarStoreClient`.  :meth:`PolarStore
.connect` is the *network* front door: it dials a ``repro.net`` server
and returns the same client type.  Both ride the transport boundary
(:mod:`repro.api.transport`): the client's ``insert``/``select``/...
methods are thin typed wrappers over ``transport.call``, so the three
historical seams stay hidden regardless of where the engine runs:

* **time threading** — the legacy entry points take ``now_us`` and
  return completion times the caller must loop back in; the transport
  keeps the simulated-time cursor itself (read it via
  :attr:`PolarStoreClient.now_us`);
* **sync vs ``_proc`` dispatch** — with ``engine.enabled`` every
  operation routes through the engine-native generator path (statement
  CPU queues on core pools, redo coalesces in group commit); without it
  the analytic synchronous path runs.  Same method, same result type,
  identical single-client timings (tested to equality);
* **single volume vs sharded cluster** — with ``cluster.shards >= 2``
  the same methods route by key range across a
  :class:`~repro.cluster.runtime.ClusterRuntime` of real replica groups,
  and :meth:`PolarStoreClient.rebalance` drives live migration;
* **local vs remote** — ``open`` binds a
  :class:`~repro.api.transport.LocalTransport`; ``connect`` binds a
  :class:`~repro.net.client.SocketTransport` over the wire protocol.
  Results carry identical payload bytes and simulated timings (golden-
  tested); operations that need in-process access raise
  :class:`~repro.api.transport.TransportCapabilityError` on a remote
  client.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.api.config import ReproConfig
from repro.api.transport import LocalTransport, Transport
from repro.common.errors import ReproError


class PolarStoreClient:
    """A typed handle over one opened (or connected) PolarStore
    deployment; all dispatch flows through its :class:`Transport`."""

    def __init__(
        self,
        config: Optional[ReproConfig] = None,
        *,
        transport: Optional[Transport] = None,
    ) -> None:
        if (config is None) == (transport is None):
            raise ReproError(
                "PolarStoreClient needs exactly one of a ReproConfig "
                "(in-process) or a Transport instance"
            )
        if transport is None:
            transport = LocalTransport(config)
        self._transport = transport

    # -- introspection -----------------------------------------------------

    @property
    def transport(self) -> Transport:
        """The bound transport (``.kind`` is ``"local"`` or ``"socket"``)."""
        return self._transport

    @property
    def config(self):
        """The deployment config (local transports only)."""
        return self._transport.config

    @property
    def now_us(self) -> float:
        """The client's simulated-time cursor."""
        return self._transport.now_us

    @property
    def engine(self):
        """The bound event kernel (None in plain synchronous mode;
        in-process access required)."""
        return self._transport.engine

    @property
    def sharded(self) -> bool:
        return self._transport.sharded

    @property
    def db(self):
        """The PolarDB handle (in-process access required)."""
        return self._transport.db

    @property
    def runtime(self):
        """The ClusterRuntime (in-process, sharded mode only)."""
        return self._transport.runtime

    @property
    def metrics(self):
        """Cluster-level registry when sharded, volume-wide otherwise
        (in-process access required)."""
        return self._transport.metrics

    @property
    def store(self):
        """The single underlying volume (in-process, single-volume
        mode only)."""
        return self._transport.store

    def advance_to(self, now_us: float) -> float:
        """Move the simulated-time cursor forward (never backward)."""
        return self._transport.advance_to(now_us)

    # -- DDL / DML ---------------------------------------------------------

    def create_table(self, name: str) -> None:
        self._transport.call("create_table", name)

    def insert(self, table: str, key: int, value: bytes):
        return self._transport.call("insert", table, key, value)

    def update(self, table: str, key: int, value: bytes):
        return self._transport.call("update", table, key, value)

    def delete(self, table: str, key: int):
        return self._transport.call("delete", table, key)

    def select(self, table: str, key: int, ro_index: int = -1):
        return self._transport.call("select", table, key, ro_index=ro_index)

    def range_select(self, table: str, low: int, high: int):
        return self._transport.call("range_select", table, low, high)

    def bulk_load(
        self, table: str, rows: Iterable[Tuple[int, bytes]]
    ) -> float:
        return self._transport.call("bulk_load", table, list(rows))

    def checkpoint(self) -> float:
        return self._transport.call("checkpoint")

    # -- volume-level page I/O (single-volume mode) ------------------------

    def write_page(self, page_no: int, data: bytes, **kwargs):
        return self._transport.call("write_page", page_no, data, **kwargs)

    def read_page(self, page_no: int):
        return self._transport.call("read_page", page_no)

    def archive_range(self, page_nos: List[int]) -> float:
        return self._transport.call("archive_range", list(page_nos))

    def scrub(self) -> float:
        return self._transport.call("scrub")

    # -- cluster operations (sharded mode) ---------------------------------

    def _require_sharded(self):
        if not self._transport.sharded:
            raise ReproError(
                "cluster operations need cluster.shards >= 2 in the config"
            )
        return self._transport.runtime

    def rebalance(self, scheduler=None):
        """Run the zone scheduler and execute its plan as live migration
        daemons; returns the :class:`MigrationReport`."""
        return self._require_sharded().rebalance(scheduler)

    def zone_occupancy(self, scheduler=None) -> Dict[str, int]:
        return self._require_sharded().zone_occupancy(scheduler)

    def wasted_fractions(self) -> Tuple[float, float]:
        return self._require_sharded().wasted_fractions()

    # -- workload-driver compatibility -------------------------------------

    def bind_engine(self, engine) -> None:
        """Adopt an external event kernel (what ``run_sysbench`` does).

        A sharded client is born on its runtime's kernel and cannot move;
        passing that same kernel is a no-op.  In-process access required.
        """
        transport = self._transport
        adopt = getattr(transport, "adopt_engine", None)
        if adopt is None:
            raise transport._no_capability("binding an event kernel")
        adopt(engine)

    def _proc(self, op: str, *args, **kwargs):
        transport = self._transport
        proc = getattr(transport, "proc", None)
        if proc is None:
            raise transport._no_capability("engine-native op generators")
        return proc(op, *args, **kwargs)

    def insert_proc(self, table: str, key: int, value: bytes):
        return self._proc("insert", table, key, value)

    def update_proc(self, table: str, key: int, value: bytes):
        return self._proc("update", table, key, value)

    def delete_proc(self, table: str, key: int):
        return self._proc("delete", table, key)

    def select_proc(self, table: str, key: int, ro_index: int = -1):
        return self._proc("select", table, key, ro_index)

    def range_select_proc(self, table: str, low: int, high: int):
        return self._proc("range_select", table, low, high)

    # -- space -------------------------------------------------------------

    def compression_ratio(self) -> float:
        return self._transport.call("compression_ratio")

    @property
    def logical_bytes(self) -> int:
        return self._transport.call("space")[0]

    @property
    def physical_bytes(self) -> int:
        return self._transport.call("space")[1]

    def close(self) -> None:
        """Release the transport (idempotent)."""
        self._transport.close()


class PolarStore:
    """The unified entry point: ``PolarStore.open(config)`` in-process,
    ``PolarStore.connect(addr)`` over the wire.

    (Distinct from :class:`repro.storage.store.PolarStore`, the
    storage-layer volume this facade fronts — ``client.store``.)
    """

    def __init__(self, *_args, **_kwargs) -> None:
        raise TypeError(
            "repro.api.PolarStore is not instantiated directly; call "
            "PolarStore.open(config) or PolarStore.connect(addr) for a "
            "client handle, or use repro.storage.store.PolarStore for a "
            "raw volume"
        )

    @classmethod
    def open(
        cls,
        config: Optional[Union[ReproConfig, dict]] = None,
        **sections,
    ) -> PolarStoreClient:
        """Open an in-process deployment described by ``config``.

        ``config`` may be a :class:`ReproConfig`, a nested dict in the
        same shape, or omitted entirely with sections given as keyword
        arguments: ``PolarStore.open(cluster={"shards": 4})``.
        """
        if config is None:
            config = ReproConfig.from_dict(sections)
        elif isinstance(config, dict):
            if sections:
                raise ValueError(
                    "pass either a config dict or section kwargs, not both"
                )
            config = ReproConfig.from_dict(config)
        elif isinstance(config, ReproConfig):
            if sections:
                raise ValueError(
                    "section kwargs cannot amend a ReproConfig instance; "
                    "use dataclasses.replace on the sections instead"
                )
        else:
            raise TypeError(
                f"config must be ReproConfig, dict, or None, "
                f"got {type(config).__name__}"
            )
        return PolarStoreClient(config)

    @classmethod
    def connect(
        cls,
        addr: Union[str, Tuple[str, int]],
        *,
        connections: int = 1,
        max_inflight: int = 256,
        queue_cap: int = 4096,
        timeout_s: float = 30.0,
    ) -> PolarStoreClient:
        """Connect to a ``python -m repro serve`` deployment.

        ``addr`` is ``"host:port"`` or a ``(host, port)`` tuple.  The
        returned client presents the identical surface as ``open`` —
        same ops, same result shapes, same simulated timings — over one
        socket connection with a bounded in-flight window
        (``max_inflight``), a backpressure queue (``queue_cap``, full
        queue rejects), and per-request wall-clock ``timeout_s``.
        ``connections`` must be 1: a client is one connection.
        """
        from repro.net.client import SocketTransport

        if connections != 1:
            raise ValueError(
                f"a client owns exactly one connection, got "
                f"connections={connections!r}"
            )
        return PolarStoreClient(
            transport=SocketTransport(
                addr,
                max_inflight=max_inflight,
                queue_cap=queue_cap,
                timeout_s=timeout_s,
            )
        )
