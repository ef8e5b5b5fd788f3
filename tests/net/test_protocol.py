"""Wire-protocol invariants: framing, codec, op typing."""

import struct
import zlib

import pytest

from repro.net.protocol import (
    MAGIC,
    MAX_FRAME_BYTES,
    OPS,
    OPS_BY_NAME,
    FrameDecoder,
    FrameError,
    ProtocolError,
    Request,
    Response,
    check_args,
    decode_message,
    decode_value,
    encode_frame,
    encode_value,
)

# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------

CODEC_CASES = [
    None,
    True,
    False,
    0,
    -1,
    2**40,
    -(2**40),
    2**100,           # bigint path
    -(2**100),
    3.25,
    b"",
    b"\x00\xff" * 17,
    "",
    "snowman ☃",
    [],
    [1, "two", b"three", None, [4.5]],
    {},
    {"b": 1, "a": [2, {"c": b"deep"}]},
]


@pytest.mark.parametrize("value", CODEC_CASES, ids=repr)
def test_value_round_trip(value):
    out = bytearray()
    encode_value(value, out)
    assert decode_value(bytes(out)) == value


def test_codec_is_deterministic_across_dict_orders():
    a = bytearray()
    b = bytearray()
    encode_value({"x": 1, "y": 2}, a)
    encode_value(dict([("y", 2), ("x", 1)]), b)
    assert bytes(a) == bytes(b)


def test_codec_rejects_unencodable():
    with pytest.raises(ProtocolError):
        encode_value(object(), bytearray())
    with pytest.raises(ProtocolError):
        encode_value({1: "non-str key"}, bytearray())


def test_trailing_bytes_rejected():
    out = bytearray()
    encode_value(7, out)
    with pytest.raises(ProtocolError, match="trailing"):
        decode_value(bytes(out) + b"\x00")


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def test_frame_round_trip_and_incremental_feed():
    frames = [encode_frame({"n": i, "blob": bytes([i]) * i})
              for i in range(5)]
    stream = b"".join(frames)
    decoder = FrameDecoder()
    seen = []
    # One byte at a time: truncation is never an error.
    for offset in range(len(stream)):
        seen.extend(decoder.feed(stream[offset:offset + 1]))
    assert [doc["n"] for doc in seen] == list(range(5))
    assert len(decoder._buf) == 0


def test_truncated_frame_waits_then_completes():
    frame = encode_frame({"k": b"v" * 100})
    decoder = FrameDecoder()
    assert decoder.feed(frame[:10]) == []
    assert len(decoder._buf) == 10
    (doc,) = decoder.feed(frame[10:])
    assert doc == {"k": b"v" * 100}


def test_garbage_magic_rejected():
    with pytest.raises(FrameError, match="magic"):
        FrameDecoder().feed(b"XXXXXXXXXXXXXXXX")


def test_wrong_version_rejected():
    frame = bytearray(encode_frame(1))
    frame[2] = 99  # version byte
    with pytest.raises(FrameError, match="version"):
        FrameDecoder().feed(bytes(frame))


def test_oversized_frame_rejected_from_header_alone():
    header = struct.Struct("<2sBII").pack(
        MAGIC, 1, MAX_FRAME_BYTES + 1, 0
    )
    with pytest.raises(FrameError, match="oversized"):
        FrameDecoder().feed(header)


def test_crc_flip_rejected():
    frame = bytearray(encode_frame({"payload": b"x" * 64}))
    frame[-1] ^= 0x01  # corrupt one payload byte
    with pytest.raises(FrameError, match="CRC"):
        FrameDecoder().feed(bytes(frame))
    # Sanity: the CRC in the header really covered the payload.
    intact = encode_frame({"payload": b"x" * 64})
    _, _, length, crc = struct.Struct("<2sBII").unpack_from(intact)
    assert crc == zlib.crc32(intact[11:11 + length])


# ---------------------------------------------------------------------------
# requests / responses over every op
# ---------------------------------------------------------------------------

SAMPLE_ARGS = {
    "hello": [7, 1],
    "ping": [],
    "stats": [],
    "flush": [],
    "create_table": ["t"],
    "insert": ["t", 1, b"v"],
    "update": ["t", 1, b"w"],
    "delete": ["t", 1],
    "select": ["t", 1, -1],
    "range_select": ["t", 0, 9],
    "bulk_load": ["t", [[1, b"a"], [2, b"b"]]],
    "checkpoint": [],
    "write_page": [3, b"p" * 32],
    "read_page": [3],
    "archive_range": [[1, 2, 3]],
    "scrub": [],
    "compression_ratio": [],
    "space": [],
}


def test_sample_args_cover_every_op():
    assert set(SAMPLE_ARGS) == {spec.name for spec in OPS}


@pytest.mark.parametrize("op", sorted(SAMPLE_ARGS), ids=str)
def test_request_round_trip_every_op(op):
    request = Request(
        id=42, op=op, args=SAMPLE_ARGS[op],
        seq=3, session=9, arrival_us=12.5, flags=1,
    )
    (payload,) = FrameDecoder().feed(request.encode())
    decoded = decode_message(payload)
    assert isinstance(decoded, Request)
    assert decoded.op == op
    assert decoded.args == SAMPLE_ARGS[op]
    assert (decoded.id, decoded.seq, decoded.session) == (42, 3, 9)
    assert decoded.arrival_us == 12.5
    assert decoded.sync


def test_response_round_trip():
    response = Response(
        id=5, status=0, kind="op", value=b"row", done_us=99.5,
        arrival_us=90.0, io_reads=2, redo_bytes=128, queue_depth=4,
    )
    (payload,) = FrameDecoder().feed(response.encode())
    decoded = decode_message(payload)
    assert isinstance(decoded, Response)
    assert decoded == response
    assert decoded.latency_us == pytest.approx(9.5)


def test_unknown_op_code_rejected():
    frame = Request(id=1, op="ping", args=[]).encode()
    (payload,) = FrameDecoder().feed(frame)
    payload["op"] = 250
    with pytest.raises(ProtocolError, match="unknown op"):
        decode_message(payload)


def test_arity_and_type_drift_rejected():
    spec = OPS_BY_NAME["insert"]
    with pytest.raises(ProtocolError, match="takes 3 args"):
        check_args(spec, ["t", 1])
    with pytest.raises(ProtocolError, match="arg 'key'"):
        check_args(spec, ["t", "not-an-int", b"v"])
    with pytest.raises(ProtocolError):
        Request(id=1, op="nope", args=[]).encode()


def test_op_codes_are_unique_wire_abi():
    codes = [spec.code for spec in OPS]
    assert len(codes) == len(set(codes))
