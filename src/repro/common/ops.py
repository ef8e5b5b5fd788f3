"""The op table: every client operation, described once.

A row (:class:`OpSpec`) is everything any layer needs to know about one
operation — its name and wire code, its positional arguments with their
keyword defaults and coercions, the shape of its result, where it
executes, and whether the engine has a native generator for it.  A
second table, :data:`RESULT_KINDS`, says for each result shape how to
read its completion time, how to put it on the wire and how to take it
off again.  ``LocalTransport``, ``SocketTransport``, the server and the
wire protocol are lookups into these two tables; to add an op, add one
row here and one typed method on ``PolarStoreClient``.

This module imports nothing from ``repro`` at module level but
``repro.common``, so both ``repro.api`` and ``repro.net`` can import it;
the result classes live with their layers and are imported where a
reply is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.errors import ReproError

_REQUIRED = object()


@dataclass(frozen=True)
class Arg:
    """One positional argument of an op."""

    name: str
    #: Python types the wire accepts for it.
    types: tuple
    default: Any = _REQUIRED
    #: Caller's value -> the one value both the frame and the executing
    #: backend take (a tuple and a list are the same bytes on the wire).
    coerce: Optional[Callable[[Any], Any]] = None
    #: Only a single-volume backend takes it; a sharded one routes by
    #: key alone.  It still travels on the wire.
    single_volume: bool = False


@dataclass(frozen=True)
class OpSpec:
    """One typed operation."""

    code: int
    name: str
    args: Tuple[Arg, ...]
    #: Key into :data:`RESULT_KINDS` (session replies name their own).
    kind: str
    #: Where ``LocalTransport`` executes it: ``"backend"`` (the db or
    #: the cluster runtime), ``"store"`` (the single volume),
    #: ``"facade"`` (the transport itself) — or ``"session"`` for ops
    #: the server answers without touching the deployment.
    target: str = "session"
    #: Control ops bypass the per-session sequencer entirely.
    control: bool = False
    #: The backend has an engine-native ``<name>_proc`` generator; ops
    #: without one always execute synchronously, even when pipelined.
    proc: bool = False

    def bind(self, args: tuple, kwargs: dict, sharded: bool = False) -> list:
        """Call arguments -> the coerced positional list the wire
        carries, or with ``sharded`` the one a sharded backend takes.
        A keyword must name an argument."""
        if len(args) > len(self.args):
            raise TypeError(
                f"op {self.name!r} takes {len(self.args)} args, "
                f"got {len(args)}"
            )
        bound = []
        for index, arg in enumerate(self.args):
            value = (
                args[index] if index < len(args)
                else kwargs.pop(arg.name, arg.default)
            )
            if value is _REQUIRED:
                raise TypeError(f"op {self.name!r} needs {arg.name!r}")
            if not (sharded and arg.single_volume):
                bound.append(
                    value if arg.coerce is None else arg.coerce(value)
                )
        if kwargs:
            raise TypeError(f"op {self.name!r} takes no {sorted(kwargs)}")
        return bound


@dataclass(frozen=True)
class ResultKind:
    """How one shape of result crosses the transport boundary.  (The
    ``io_reads`` / ``redo_bytes`` counters a result may carry ride in
    the reply's own fields, next to ``done_us``.)"""

    #: result -> simulated completion time; None for ops that take no
    #: simulated time (they complete at the cursor and are called
    #: without it).
    done_us: Optional[Callable[[Any], float]]
    #: result -> wire value
    to_wire: Callable[[Any], Any]
    #: reply (``value``/``done_us``/``io_reads``/``redo_bytes``) -> the
    #: result object a local call returns.
    from_wire: Callable[[Any], Any]


def _done_us(result) -> float:
    return result.done_us


def _op_from_wire(reply):
    from repro.db.rw_node import OpResult

    value = reply.value
    return OpResult(
        done_us=reply.done_us,
        io_reads=reply.io_reads,
        redo_bytes=reply.redo_bytes,
        value=None if value is None else bytes(value),
    )


def _read_to_wire(result) -> dict:
    return {"data": result.data, "cpu_us": result.cpu_us,
            "consolidated": result.consolidated}


def _read_from_wire(reply):
    from repro.storage.node import ReadResult

    doc = reply.value
    return ReadResult(
        data=bytes(doc["data"]),
        done_us=reply.done_us,
        io_reads=reply.io_reads,
        cpu_us=float(doc["cpu_us"]),
        consolidated=bool(doc["consolidated"]),
    )


def _commit_from_wire(reply):
    from repro.storage.store import CommittedWrite

    # ``prepared`` carries in-process page buffers; over the wire the
    # commit timestamp is the contract.
    return CommittedWrite(commit_us=reply.done_us, prepared=None)


def _float_from_wire(reply) -> float:
    return float(reply.value)


RESULT_KINDS: Dict[str, ResultKind] = {
    "op": ResultKind(_done_us, lambda r: r.value, _op_from_wire),
    "time": ResultKind(float, float, _float_from_wire),
    "commit": ResultKind(
        lambda r: r.commit_us, lambda r: None, _commit_from_wire
    ),
    "read": ResultKind(_done_us, _read_to_wire, _read_from_wire),
    "ratio": ResultKind(None, float, _float_from_wire),
    "space": ResultKind(
        None,
        lambda r: [int(r[0]), int(r[1])],
        lambda reply: (int(reply.value[0]), int(reply.value[1])),
    ),
    "none": ResultKind(None, lambda r: None, lambda reply: None),
}

_BYTESLIKE = (bytes, bytearray)
_TABLE = Arg("table", (str,))
_KEY = Arg("key", (int,))
_VALUE = Arg("value", _BYTESLIKE, coerce=bytes)
_PAGE_NO = Arg("page_no", (int,))

#: The op table.  Codes are wire ABI: never renumber, only append.
OPS: Tuple[OpSpec, ...] = (
    OpSpec(1, "hello", (Arg("session", (int,)), Arg("version", (int,))),
           "hello", control=True),
    OpSpec(2, "ping", (), "time", control=True),
    OpSpec(3, "stats", (), "stats", control=True),
    OpSpec(4, "flush", (), "time"),
    OpSpec(10, "create_table", (_TABLE,), "none", "backend"),
    OpSpec(11, "insert", (_TABLE, _KEY, _VALUE), "op", "backend", proc=True),
    OpSpec(12, "update", (_TABLE, _KEY, _VALUE), "op", "backend", proc=True),
    OpSpec(13, "delete", (_TABLE, _KEY), "op", "backend", proc=True),
    OpSpec(14, "select",
           (_TABLE, _KEY,
            Arg("ro_index", (int,), default=-1, single_volume=True)),
           "op", "backend", proc=True),
    OpSpec(15, "range_select",
           (_TABLE, Arg("low", (int,)), Arg("high", (int,))),
           "op", "backend", proc=True),
    OpSpec(16, "bulk_load",
           (_TABLE,
            Arg("rows", (list,),
                coerce=lambda rows: [(k, bytes(v)) for k, v in rows])),
           "time", "backend"),
    OpSpec(17, "checkpoint", (), "time", "backend"),
    OpSpec(20, "write_page", (_PAGE_NO, Arg("data", _BYTESLIKE, coerce=bytes)),
           "commit", "store"),
    OpSpec(21, "read_page", (_PAGE_NO,), "read", "store"),
    OpSpec(22, "archive_range", (Arg("page_nos", (list,), coerce=list),),
           "time", "store"),
    OpSpec(23, "scrub", (), "time", "store"),
    OpSpec(30, "compression_ratio", (), "ratio", "backend"),
    OpSpec(31, "space", (), "space", "facade"),
)

OPS_BY_NAME: Dict[str, OpSpec] = {spec.name: spec for spec in OPS}
OPS_BY_CODE: Dict[int, OpSpec] = {spec.code: spec for spec in OPS}

#: Ops a transport must implement (the PolarStoreClient data plane).
TRANSPORT_OPS: Tuple[str, ...] = tuple(
    spec.name for spec in OPS if spec.target != "session"
)


def data_op(name: str) -> OpSpec:
    """The row a transport executes for ``name``."""
    spec = OPS_BY_NAME.get(name)
    if spec is None or spec.target == "session":
        raise ReproError(f"unknown transport op {name!r}")
    return spec

