"""The transport boundary: one client surface, local or remote.

:class:`~repro.api.client.PolarStoreClient` used to *be* the dispatch
logic — it owned the backend objects and the sync-vs-proc routing.
This module extracts that into a :class:`Transport`, so the same typed
client rides on either side of a socket:

* :class:`LocalTransport` — in-process access, built from a
  :class:`~repro.api.config.ReproConfig` exactly as ``PolarStore.open``
  always did.  It owns the volume/cluster, the optional event kernel,
  and the simulated-time cursor, and executes ops directly.
* :class:`repro.net.client.SocketTransport` — remote access over the
  ``repro.net`` wire protocol, returned by ``PolarStore.connect``.
  Same ops, same result shapes, same simulated timings (golden-tested
  to equality); the server executes against its own LocalTransport.

Everything a transport cannot offer (direct backend handles, engine
binding, ``*_proc`` generators) raises
:class:`TransportCapabilityError` instead of pretending — remote
callers get a actionable message, not an ``AttributeError``.
"""

from __future__ import annotations

from typing import Dict

from repro.api.config import ReproConfig
from repro.api.factory import build_cluster, build_db
from repro.common.errors import ReproError
from repro.common.ops import RESULT_KINDS, TRANSPORT_OPS, data_op


class TransportError(ReproError):
    """A transport-level failure (connection, timeout, remote error)."""


class TransportCapabilityError(TransportError):
    """The operation needs a capability this transport does not have."""


class AdmissionError(TransportError):
    """Rejected by admission control (the server's window is full)."""


class TransportTimeout(TransportError):
    """A request exceeded its wall-clock deadline."""


def _in_process_only(what: str) -> property:
    """A property only an in-process transport can honour."""

    def gated(self):
        raise self._no_capability(what)

    return property(gated)


class Transport:
    """What a :class:`PolarStoreClient` needs from its backing deployment.

    A transport executes typed ops at the client's simulated-time
    cursor and owns that cursor.  ``call`` is the synchronous path
    (used by every client method); transports that can pipeline
    (sockets) additionally implement ``submit``.
    """

    #: ``"local"`` or ``"socket"`` — for introspection and error text.
    kind: str = "abstract"

    # -- simulated time ----------------------------------------------------

    @property
    def now_us(self) -> float:
        raise NotImplementedError

    def advance_to(self, now_us: float) -> float:
        raise NotImplementedError

    # -- ops ---------------------------------------------------------------

    def call(self, op: str, /, *args, **kwargs):
        """Execute one op at the cursor and return its result object."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- introspection -----------------------------------------------------

    @property
    def sharded(self) -> bool:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Transport kind plus deployment shape (for logs and errors)."""
        return {"kind": self.kind, "sharded": self.sharded}

    # -- capability gating -------------------------------------------------

    def _no_capability(self, what: str) -> TransportCapabilityError:
        return TransportCapabilityError(
            f"{what} needs in-process access; this client is connected "
            f"over a {self.kind!r} transport"
        )

    config = _in_process_only("the deployment config")
    db = _in_process_only("the PolarDB handle")
    runtime = _in_process_only("the ClusterRuntime handle")
    store = _in_process_only("the raw volume")
    engine = _in_process_only("the event kernel")
    metrics = _in_process_only("the metrics registry")


class LocalTransport(Transport):
    """In-process execution: the dispatch previously inlined in the
    client, behind the transport boundary.

    Keeps the historical seams hidden exactly as before: the simulated
    time cursor, sync-vs-``_proc`` routing when an engine is bound, and
    single-volume vs sharded-cluster backends behind the same ops.
    """

    kind = "local"

    def __init__(self, config: ReproConfig) -> None:
        self._config = config.validate()
        self._now_us = 0.0
        self._sharded = config.cluster.shards >= 2
        if self._sharded:
            self._runtime = build_cluster(config)
            self._db = None
            self._engine = self._runtime.engine
        else:
            self._runtime = None
            self._db = build_db(config)
            self._engine = None
            if config.engine.enabled:
                from repro.engine.core import Engine

                self._engine = Engine()
                self._db.bind_engine(
                    self._engine, defer_gc=config.engine.defer_gc
                )
        #: The engine built here (closed with the transport); an adopted
        #: engine belongs to whoever built it.
        self._own_engine = self._engine

    # -- locals the client (and the net server) may reach ------------------

    @property
    def config(self) -> ReproConfig:
        return self._config

    @property
    def db(self):
        return self._db

    @property
    def runtime(self):
        return self._runtime

    @property
    def engine(self):
        return self._engine

    @property
    def sharded(self) -> bool:
        return self._sharded

    @property
    def metrics(self):
        if self._sharded:
            return self._runtime.metrics
        return self._db.metrics

    @property
    def store(self):
        if self._sharded:
            raise ReproError(
                "a sharded client has no single volume; use .runtime"
            )
        return self._db.store

    def describe(self) -> Dict[str, object]:
        doc = super().describe()
        doc["engine"] = self._engine is not None
        doc["shards"] = self._config.cluster.shards
        return doc

    # -- simulated time ----------------------------------------------------

    @property
    def now_us(self) -> float:
        if self._engine is not None:
            return max(self._now_us, self._engine.now_us)
        return self._now_us

    def advance_to(self, now_us: float) -> float:
        self._now_us = max(self._now_us, now_us)
        if self._engine is not None:
            self._engine.advance_to(self._now_us)
        return self.now_us

    # -- engine adoption (workload-driver compatibility) -------------------

    def adopt_engine(self, engine) -> None:
        if self._sharded:
            if engine is not self._runtime.engine:
                raise ReproError(
                    "a sharded client is bound to its runtime's engine; "
                    "pass engine=client.engine to the workload driver"
                )
            return
        self._engine = engine
        self._db.bind_engine(engine)

    # -- dispatch ----------------------------------------------------------

    def backend(self):
        return self._runtime if self._sharded else self._db

    def _target(self, spec):
        """The object an op row's ``target`` names."""
        if spec.target == "store":
            return self.store
        return self.backend() if spec.target == "backend" else self

    def call(self, op: str, /, *args, **kwargs):
        """Look the op up, coerce its arguments, execute it on the
        row's target — through the engine-native generator when an
        engine is bound and the row has one — and advance the cursor to
        the completion time its result kind reads off the result."""
        self._check_open()
        spec = data_op(op)
        args = spec.bind(args, kwargs, self._sharded)
        target = self._target(spec)
        done_us = RESULT_KINDS[spec.kind].done_us
        if done_us is None:
            return getattr(target, op)(*args)
        now = self.now_us
        engine = self._engine
        if engine is not None:
            engine.advance_to(now)
        if engine is not None and spec.proc:
            result = engine.run(
                getattr(target, op + "_proc")(*args)
            )
        else:
            result = getattr(target, op)(now, *args)
        self._now_us = max(now, done_us(result))
        return result

    def proc(self, op: str, *args):
        """The engine-native generator for one op (workload drivers)."""
        self._check_open()
        args = data_op(op).bind(args, {}, self._sharded)
        return getattr(self.backend(), op + "_proc")(*args)

    def space(self):
        """(logical, physical) bytes in use, summed over shards."""
        if self._sharded:
            return (
                sum(s.logical_used for s in self._runtime.shards),
                sum(s.physical_used for s in self._runtime.shards),
            )
        return (self._db.logical_bytes, self._db.physical_bytes)

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self) -> None:
        if self.backend() is None:
            raise TransportError("local transport is closed")

    def close(self) -> None:
        """Release backend references (idempotent).  Work still pending
        on the engine this transport built is abandoned, so nothing it
        references outlives the transport."""
        if self._own_engine is not None:
            self._own_engine.close()
        self._own_engine = None
        self._db = None
        self._runtime = None
        self._engine = None


__all__ = [
    "AdmissionError",
    "LocalTransport",
    "TRANSPORT_OPS",
    "Transport",
    "TransportCapabilityError",
    "TransportError",
    "TransportTimeout",
]
