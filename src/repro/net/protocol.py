"""The PolarStore wire protocol: length-prefixed, CRC-checked frames.

Every message on a connection is one frame::

    +-------+---------+-------------+------------+------------------+
    | magic | version | payload_len | crc32      | payload          |
    | 2B PN | u8 = 1  | u32 LE      | u32 LE     | payload_len bytes|
    +-------+---------+-------------+------------+------------------+

The payload is one value in a small typed binary encoding (a tagged
subset of JSON plus real ``bytes``), and is always a dict describing a
:class:`Request` or :class:`Response`.  Decoding is strict in both
directions: a frame with a bad magic, an oversized length, or a CRC
mismatch raises :class:`FrameError`; a request whose op code is unknown
or whose argument count/types drift from the op's spec raises
:class:`ProtocolError`.  Truncation is not an error — the incremental
:class:`FrameDecoder` simply waits for more bytes.

Ops are numbered, typed, and cover the ``PolarStoreClient`` data-plane
surface; control ops (HELLO/PING/STATS) are answered outside the
sequence.  The ``seq`` field is the client-assigned number of a data op
on its connection (0, 1, 2, ...); the server executes them in that
order and refuses any other — the property that makes the simulated
side of a networked run deterministic.  Nothing routes on ``session``:
the handshake reply echoes it, and the client always sends 0.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from repro.common.errors import ReproError
from repro.common.ops import OPS, OPS_BY_CODE, OPS_BY_NAME, OpSpec

#: Frame header: magic, version, payload length, payload CRC32.
MAGIC = b"PN"
VERSION = 1
_HEADER = struct.Struct("<2sBII")

#: Default ceiling on one frame's payload (requests larger than this are
#: malformed or hostile; bulk loads should batch below it).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Ceiling on list/dict nesting inside one payload; the deepest message
#: this protocol sends (``bulk_load`` rows) nests four levels.
MAX_DEPTH = 32

#: Request flags.
FLAG_SYNC = 0x01  # run the engine until this op completes, then reply

#: Response statuses.
STATUS_OK = 0
STATUS_REJECTED = 1  # admission control: in-flight window full
STATUS_ERROR = 2


class ProtocolError(ReproError):
    """A structurally valid frame with semantically invalid content."""


class FrameError(ProtocolError):
    """A malformed frame: bad magic, oversize, or CRC mismatch."""


# ---------------------------------------------------------------------------
# typed value codec
# ---------------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT64 = 0x03
_T_FLOAT = 0x04
_T_BYTES = 0x05
_T_STR = 0x06
_T_LIST = 0x07
_T_BIGINT = 0x08
_T_DICT = 0x09

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_U32 = struct.Struct("<I")
_Q = struct.Struct("<q")
_D = struct.Struct("<d")


def encode_value(value: Any, out: bytearray) -> None:
    """Append one tagged value to ``out`` (deterministic: dict keys are
    written in sorted order, so equal values encode to equal bytes)."""
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_T_INT64)
            out += _Q.pack(value)
        else:
            raw = value.to_bytes(
                (value.bit_length() + 8) // 8, "little", signed=True
            )
            out.append(_T_BIGINT)
            out += _U32.pack(len(raw))
            out += raw
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _D.pack(value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_T_BYTES)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key in sorted(value):
            if not isinstance(key, str):
                raise ProtocolError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            out += _U32.pack(len(raw))
            out += raw
            encode_value(value[key], out)
    else:
        raise ProtocolError(
            f"unencodable value of type {type(value).__name__}: {value!r}"
        )


class _Reader:
    """Bounds-checked cursor over one payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ProtocolError(
                f"payload truncated: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def text(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"string is not UTF-8: {exc}") from None


def _decode_value(reader: _Reader, depth: int = 0) -> Any:
    if depth > MAX_DEPTH:
        raise ProtocolError(f"value nests deeper than {MAX_DEPTH} levels")
    tag = reader.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT64:
        return _Q.unpack(reader.take(8))[0]
    if tag == _T_BIGINT:
        return int.from_bytes(reader.take(reader.u32()), "little", signed=True)
    if tag == _T_FLOAT:
        return _D.unpack(reader.take(8))[0]
    if tag == _T_BYTES:
        return reader.take(reader.u32())
    if tag == _T_STR:
        return reader.text()
    if tag == _T_LIST:
        return [_decode_value(reader, depth + 1) for _ in range(reader.u32())]
    if tag == _T_DICT:
        count = reader.u32()
        doc: Dict[str, Any] = {}
        for _ in range(count):
            key = reader.text()
            doc[key] = _decode_value(reader, depth + 1)
        return doc
    raise ProtocolError(f"unknown value tag 0x{tag:02x}")


def decode_value(payload: bytes) -> Any:
    """Decode exactly one value; trailing bytes are a protocol error."""
    reader = _Reader(payload)
    value = _decode_value(reader)
    if reader.pos != len(payload):
        raise ProtocolError(
            f"{len(payload) - reader.pos} trailing bytes after value"
        )
    return value


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def encode_frame(payload_value: Any) -> bytes:
    """One value -> one wire frame (header + CRC + typed payload)."""
    body = bytearray()
    encode_value(payload_value, body)
    payload = bytes(body)
    return (
        _HEADER.pack(MAGIC, VERSION, len(payload), zlib.crc32(payload))
        + payload
    )


class FrameDecoder:
    """Incremental frame reassembly: feed bytes, get whole payloads.

    Truncated input is not an error (the next ``feed`` may complete the
    frame); structurally bad input — including a CRC-valid payload that
    is not one well-formed value — raises :class:`FrameError`, the only
    exception ``feed`` raises, and the decoder must be discarded: a
    stream that lost framing cannot be resynchronized.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Any]:
        """Append ``data``; return every completed payload value."""
        self._buf += data
        out: List[Any] = []
        while True:
            if len(self._buf) < _HEADER.size:
                return out
            magic, version, length, crc = _HEADER.unpack_from(self._buf)
            if magic != MAGIC:
                raise FrameError(
                    f"bad frame magic {bytes(magic)!r} (expected {MAGIC!r})"
                )
            if version != VERSION:
                raise FrameError(
                    f"unsupported protocol version {version} "
                    f"(this side speaks {VERSION})"
                )
            if length > self.max_frame_bytes:
                raise FrameError(
                    f"oversized frame: {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte ceiling"
                )
            end = _HEADER.size + length
            if len(self._buf) < end:
                return out
            payload = bytes(self._buf[_HEADER.size:end])
            del self._buf[:end]
            actual = zlib.crc32(payload)
            if actual != crc:
                raise FrameError(
                    f"frame CRC mismatch: header says 0x{crc:08x}, "
                    f"payload is 0x{actual:08x}"
                )
            try:
                out.append(decode_value(payload))
            except ProtocolError as exc:
                raise FrameError(f"undecodable payload: {exc}") from None


# ---------------------------------------------------------------------------
# ops (the table itself is :mod:`repro.common.ops`)
# ---------------------------------------------------------------------------


def check_args(spec: OpSpec, args: Iterable[Any]) -> List[Any]:
    """Validate positional args against the spec; returns them as a list."""
    args = list(args)
    if len(args) != len(spec.args):
        raise ProtocolError(
            f"op {spec.name!r} takes {len(spec.args)} args "
            f"({', '.join(arg.name for arg in spec.args)}), got {len(args)}"
        )
    for arg, value in zip(spec.args, args):
        if not isinstance(value, arg.types):
            allowed = "/".join(t.__name__ for t in arg.types)
            raise ProtocolError(
                f"op {spec.name!r} arg {arg.name!r} must be {allowed}, "
                f"got {type(value).__name__}"
            )
    return args


# ---------------------------------------------------------------------------
# request / response
# ---------------------------------------------------------------------------

def _wire_doc(tag: str, message: Any, schema) -> Dict[str, Any]:
    """A message -> its payload dict (time stamps always as floats)."""
    doc = {"t": tag}
    for name, kind in schema:
        value = getattr(message, name)
        doc[name] = float(value) if kind is float else value
    return doc


def _typed_fields(doc: Any, tag: str, schema) -> Dict[str, Any]:
    """A decoded payload -> its message fields, each present and of the
    declared type (whatever else a peer sent is a protocol error)."""
    if not isinstance(doc, dict) or doc.get("t") != tag:
        raise ProtocolError(
            f"not a {tag!r} message payload: {type(doc).__name__}"
        )
    fields = {}
    for name, kind in schema:
        if name not in doc:
            raise ProtocolError(f"message missing field {name!r}")
        value = fields[name] = doc[name]
        if not isinstance(value, kind) or (
            kind is float and not math.isfinite(value)
        ):
            raise ProtocolError(
                f"message field {name!r} must be a finite "
                f"{kind.__name__}, got {type(value).__name__}"
            )
    return fields


@dataclass(frozen=True)
class Request:
    """One client->server operation."""

    id: int
    op: str
    args: List[Any] = field(default_factory=list)
    #: Submission order on the connection; -1 for control ops
    #: (unsequenced).
    seq: int = -1
    session: int = 0
    #: Simulated arrival time the op is bridged onto the engine at.
    arrival_us: float = 0.0
    flags: int = 0

    #: The payload's fields and types (``op`` travels as its code).
    _WIRE = (("id", int), ("op", int), ("args", list), ("seq", int),
             ("session", int), ("arrival_us", float), ("flags", int))

    @property
    def sync(self) -> bool:
        return bool(self.flags & FLAG_SYNC)

    @property
    def spec(self) -> OpSpec:
        return OPS_BY_NAME[self.op]

    def encode(self) -> bytes:
        spec = OPS_BY_NAME.get(self.op)
        if spec is None:
            raise ProtocolError(f"unknown op {self.op!r}")
        doc = _wire_doc("q", self, self._WIRE)
        doc["op"] = spec.code
        doc["args"] = check_args(spec, self.args)
        return encode_frame(doc)

    @classmethod
    def from_payload(cls, doc: Any) -> "Request":
        fields = _typed_fields(doc, "q", cls._WIRE)
        spec = OPS_BY_CODE.get(fields["op"])
        if spec is None:
            raise ProtocolError(f"unknown op code {fields['op']}")
        fields["op"] = spec.name
        fields["args"] = check_args(spec, fields["args"])
        return cls(**fields)


@dataclass(frozen=True)
class Response:
    """One server->client reply, matched to its request by ``id``.

    ``done_us`` is the simulated completion time; ``arrival_us`` echoes
    the request so ``done_us - arrival_us`` is the simulated latency
    (queueing included).  ``queue_depth`` is the bridge's in-flight
    count observed at the op's simulated arrival — the admission-control
    signal, deterministic per seed.  ``kind`` names the row of
    :data:`repro.common.ops.RESULT_KINDS` that maps ``value`` back onto
    a client-side result object.
    """

    id: int
    status: int = STATUS_OK
    kind: str = "none"
    value: Any = None
    done_us: float = 0.0
    arrival_us: float = 0.0
    io_reads: int = 0
    redo_bytes: int = 0
    queue_depth: int = 0
    error: str = ""

    _WIRE = (("id", int), ("status", int), ("kind", str), ("value", object),
             ("done_us", float), ("arrival_us", float), ("io_reads", int),
             ("redo_bytes", int), ("queue_depth", int), ("error", str))

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        return self.status == STATUS_REJECTED

    @property
    def latency_us(self) -> float:
        return self.done_us - self.arrival_us

    def encode(self) -> bytes:
        return encode_frame(_wire_doc("r", self, self._WIRE))

    @classmethod
    def from_payload(cls, doc: Any) -> "Response":
        return cls(**_typed_fields(doc, "r", cls._WIRE))


def decode_message(payload: Any):
    """Payload value -> :class:`Request` or :class:`Response`."""
    if isinstance(payload, dict) and payload.get("t") == "q":
        return Request.from_payload(payload)
    return Response.from_payload(payload)


__all__ = [
    "FLAG_SYNC",
    "FrameDecoder",
    "FrameError",
    "MAX_FRAME_BYTES",
    "OPS",
    "OPS_BY_CODE",
    "OPS_BY_NAME",
    "OpSpec",
    "ProtocolError",
    "Request",
    "Response",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_REJECTED",
    "check_args",
    "decode_message",
    "decode_value",
    "encode_frame",
    "encode_value",
]
