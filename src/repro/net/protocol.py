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
import operator
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

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

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

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
    """One value -> one wire frame (header + CRC + typed payload); a
    :class:`Request` / :class:`Response` is written by its layout."""
    if isinstance(payload_value, (Request, Response)):
        payload = payload_value._payload()
    else:
        body = bytearray()
        encode_value(payload_value, body)
        payload = bytes(body)
    return (
        _HEADER.pack(MAGIC, VERSION, len(payload), zlib.crc32(payload))
        + payload
    )


class FrameDecoder:
    """Incremental frame reassembly: feed bytes, get whole messages.

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
        """Append ``data``; return every completed message (a payload not
        in its canonical layout as its value, for :func:`decode_message`)."""
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
                out.append(_decode_canonical(payload) or decode_value(payload))
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
# compiled layouts: one message in a few struct calls
# ---------------------------------------------------------------------------

#: Tag and ``struct`` code of each leaf type a layout packs itself (of a
#: ``str`` / ``bytes`` leaf, its length); the generic codec takes a leaf
#: of any other type (``list``, say) or an ``object`` leaf (any value).
_LEAF_CODES = {int: (_T_INT64, "q"), float: (_T_FLOAT, "d"),
               str: (_T_STR, "I"), bytes: (_T_BYTES, "I")}


class _Layout:
    """A message class's canonical payload dict, compiled at import:
    keys sorted, ``t`` the constant ``tag``, the ``list`` field one leaf
    per type in ``args``.  ``leaves`` are (constant bytes before it, type)
    in wire order.  Each segment is one ``struct`` over alternating
    constants and fixed-width leaves, closed by a ``str`` / ``bytes`` leaf
    (its length; the raw bytes follow), a leaf for the generic codec (at
    nesting ``depth``) or the end."""

    def __init__(self, message, tag: str, args=(), depth: int = 1) -> None:
        fields = dict(message._WIRE, t=tag)
        self.leaves, self.depth = [], depth
        prefix = bytes([_T_DICT]) + _U32.pack(len(fields))
        for name in sorted(fields):
            prefix += _U32.pack(len(name)) + name.encode()
            if name == "t":
                prefix += bytes([_T_STR]) + _U32.pack(len(tag)) + tag.encode()
                continue
            kinds = [fields[name]]
            if kinds == [list]:
                prefix += bytes([_T_LIST]) + _U32.pack(len(args))
                kinds = args
            for kind in kinds:
                self.leaves.append((prefix, kind))
                prefix = b""
        self.suffix = prefix
        typed = [i for i, (_, kind) in enumerate(self.leaves)
                 if kind is not object]  # never fewer than two
        self._typed = operator.itemgetter(*typed)
        self._types = tuple(self.leaves[i][1] for i in typed)
        self._floats = [i for i in typed if self.leaves[i][1] is float]
        #: (struct, its constants and value codes, their constants, first
        #: leaf, closing leaf, its type) per segment.
        self.segments = []
        cells, lo = [], 0
        for hi, (prefix, kind) in enumerate(self.leaves + [(prefix, None)]):
            value_tag, code = _LEAF_CODES.get(kind, (None, None))
            cells += [prefix + bytes([value_tag]), code] if code else [prefix]
            if kind in (int, float) or (kind is None and cells == [b""]):
                continue
            fmt = "".join(c if isinstance(c, str) else f"{len(c)}s"
                          for c in cells)
            self.segments.append((struct.Struct("<" + fmt), cells,
                                  tuple(cells[::2]), lo, hi, kind))
            cells, lo = [], hi + 1

    def encode(self, leaves: tuple) -> bytes:
        """Leaf values in wire order -> payload (generic on a type miss)."""
        if tuple(map(type, self._typed(leaves))) == self._types:
            try:
                return self._pack(leaves)
            except struct.error:  # an int outside int64
                pass
        out = bytearray()
        for (prefix, kind), value in zip(self.leaves, leaves):
            out += prefix
            encode_value(float(value) if kind is float else value, out)
        return bytes(out + self.suffix)

    def _pack(self, leaves: tuple) -> bytes:
        out = []
        for packer, cells, _, lo, hi, kind in self.segments:
            cells, values, raw = cells.copy(), leaves[lo:hi], b""
            if kind is str or kind is bytes:
                raw = leaves[hi].encode() if kind is str else leaves[hi]
                values += (len(raw),)
            elif kind is not None:
                raw = bytearray()
                encode_value(leaves[hi], raw)
            cells[1::2] = values
            out += (packer.pack(*cells), raw)
        return b"".join(out)

    def decode(self, payload: bytes) -> Optional[list]:
        """The payload's leaves; None if it departs from the layout."""
        leaves, pos = [], 0
        for packer, _, consts, _, _, kind in self.segments:
            cells = packer.unpack_from(payload, pos)
            pos += packer.size
            if cells[::2] != consts:
                return None
            leaves += cells[1::2]
            if kind is str or kind is bytes:
                raw = payload[pos:pos + leaves[-1]]
                pos += leaves[-1]
                leaves[-1] = raw.decode("utf-8") if kind is str else raw
            elif kind is not None:
                reader = _Reader(payload, pos)
                leaves.append(_decode_value(reader, self.depth))
                pos = reader.pos
                if kind is not object and type(leaves[-1]) is not kind:
                    return None
        finite = all(map(math.isfinite, map(leaves.__getitem__, self._floats)))
        return leaves if pos == len(payload) and finite else None


def _decode_canonical(payload: bytes):
    """The message a canonical payload holds, its fields put straight in
    the instance dict (a frozen dataclass's ``__init__`` costs a call per
    field); None for any other payload, left to the generic codec."""
    try:
        if payload.startswith(_REQUEST_HEAD):
            code = _Q.unpack_from(payload, len(payload) - _REQUEST_OP_AT)[0]
            fields = code in _REQUESTS and _REQUESTS[code].decode(payload)
            if fields:
                tail, args = fields[_TAIL_AT:], fields[:_TAIL_AT]
                # The layout fixed every arg's type: ``check_args`` holds.
                tail[_REQUEST_OP] = OPS_BY_CODE[code].name
                message = object.__new__(Request)
                message.__dict__.update(zip(_REQUEST_NAMES, tail), args=args)
                return message
        elif payload.startswith(_RESPONSE_HEAD):
            fields = _RESPONSE.decode(payload)
            if fields:
                message = object.__new__(Response)
                message.__dict__.update(zip(_RESPONSE_NAMES, fields))
                return message
    except (struct.error, ValueError, ProtocolError):
        pass
    return None


# ---------------------------------------------------------------------------
# request / response
# ---------------------------------------------------------------------------


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
        return encode_frame(self)

    def _payload(self) -> bytes:
        spec = OPS_BY_NAME.get(self.op)
        if spec is None:
            raise ProtocolError(f"unknown op {self.op!r}")
        args = tuple(check_args(spec, self.args))
        return _REQUESTS[spec.code].encode(args + _REQUEST_FIELDS(self))


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
        return encode_frame(self)

    def _payload(self) -> bytes:
        return _RESPONSE.encode(_RESPONSE_FIELDS(self))


def decode_message(payload: Any):
    """Payload value (or the message it holds) -> the message."""
    if isinstance(payload, (Request, Response)):
        return payload
    if isinstance(payload, dict) and payload.get("t") == "q":
        fields = _typed_fields(payload, "q", Request._WIRE)
        spec = OPS_BY_CODE.get(fields["op"])
        if spec is None:
            raise ProtocolError(f"unknown op code {fields['op']}")
        fields["op"] = spec.name
        fields["args"] = check_args(spec, fields["args"])
        return Request(**fields)
    return Response(**_typed_fields(payload, "r", Response._WIRE))


# A request's args sort first; so the op code, which picks its layout, is
# a fixed distance from the end: it, an int per later field (key, tag,
# eight bytes), ``t``.
_REQUESTS = {spec.code: _Layout(
    Request, "q", [arg.types[0] for arg in spec.args], depth=2)
    for spec in OPS}
_REQUEST_NAMES = sorted(name for name, _ in Request._WIRE)[1:]  # the tail
_TAIL_AT, _REQUEST_OP = -len(_REQUEST_NAMES), _REQUEST_NAMES.index("op")
_ANY = _REQUESTS[OPS[0].code]
_REQUEST_HEAD = _ANY.leaves[0][0][:5]  # dict tag and key count
_REQUEST_OP_AT = 8 + len(_ANY.suffix) + sum(
    len(prefix) + 9 for prefix, _ in _ANY.leaves[_TAIL_AT + _REQUEST_OP + 1:])
_REQUEST_FIELDS = operator.attrgetter(
    *("spec.code" if name == "op" else name for name in _REQUEST_NAMES))
_RESPONSE = _Layout(Response, "r")
_RESPONSE_HEAD = _RESPONSE.leaves[0][0][:5]
_RESPONSE_NAMES = sorted(name for name, _ in Response._WIRE)
_RESPONSE_FIELDS = operator.attrgetter(*_RESPONSE_NAMES)


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
