"""Hostile frames fail loudly and boundedly.

Whatever bytes a peer sends, reassembling and decoding them yields
messages or raises :class:`FrameError` / :class:`ProtocolError` —
nothing else, in bounded time and memory — and a server that received
them counts them, answers or drops that one connection, and serves the
next.  The seeds are the golden conversation's real frames
(:mod:`tests.net.wire_frames`); mutations re-stamp the header's length
and CRC so they reach the value decoder instead of dying at the CRC.
Example counts of the generated sweep come from the Hypothesis profile
(``tests/conftest.py``); the ``deep`` profile is part of CI's
``net-smoke`` job.
"""

import gc
import logging
import math
import random
import socket
import struct
import threading
import time
import tracemalloc
import zlib
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import PolarStore, ReproConfig, TransportError
from repro.net import protocol
from repro.net.client import SocketTransport
from repro.common.ops import OPS
from repro.net.protocol import (
    MAGIC,
    MAX_DEPTH,
    VERSION,
    FrameDecoder,
    FrameError,
    ProtocolError,
    Request,
    Response,
    decode_message,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.net.server import serve_in_thread
from tests.net.wire_frames import capture

_HEADER = struct.Struct("<2sBII")
#: Per-case bounds: a frame here is at most ~17 KB.
MAX_CASE_SECONDS = 0.25
MAX_CASE_BYTES = 1 << 20


def stamped(payload: bytes) -> bytes:
    """``payload`` behind a header whose length and CRC are right."""
    return _HEADER.pack(
        MAGIC, VERSION, len(payload), zlib.crc32(payload)
    ) + payload


def receive(stream: bytes) -> list:
    """What either peer does with bytes off a socket."""
    return [decode_message(p) for p in FrameDecoder().feed(stream)]


def _mutated(frame: bytes, rng: random.Random) -> bytes:
    """One seeded mutation of a whole frame."""
    payload = bytearray(frame[_HEADER.size:])
    kind = rng.randrange(5)
    if kind == 0:  # raw bit flips, header included: usually dies at the CRC
        blob = bytearray(frame)
        for _ in range(rng.randint(1, 3)):
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        return bytes(blob)
    if kind == 1:  # payload bit flips (tags, inner length fields, values)
        for _ in range(rng.randint(1, 3)):
            payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
    elif kind == 2:  # bytes spliced in or out: every later field shifts
        at = rng.randrange(len(payload))
        payload[at:at + rng.randint(0, 3)] = rng.randbytes(rng.randint(0, 3))
    elif kind == 3:  # an inner u32 length field overwritten
        at = rng.randrange(max(1, len(payload) - 4))
        payload[at:at + 4] = struct.pack(
            "<I", rng.choice((0, 1, len(payload), 2**31, 2**32 - 1))
        )
    else:  # the header's length shortened, CRC right for what is left
        del payload[rng.randrange(len(payload)):]
    return stamped(bytes(payload))


def _bounded(stream: bytes):
    """Decode ``stream`` under the per-case time and memory bounds."""
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    started = time.perf_counter()
    try:
        outcome = receive(stream)
    except ProtocolError as exc:  # FrameError is one
        outcome = exc
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    assert elapsed < MAX_CASE_SECONDS, (elapsed, stream[:64])
    assert peak - before < MAX_CASE_BYTES + 4 * len(stream), (peak - before)
    return outcome


@pytest.fixture(scope="module")
def frames():
    return capture()


@pytest.fixture()
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def test_golden_frames_decode_to_themselves(frames):
    for label, frame in frames.items():
        (message,) = receive(frame)
        assert message.encode() == frame, label


def test_seeded_mutation_sweep(frames, traced):
    rng = random.Random("wire-mutations")
    outcomes = {"message": 0, "FrameError": 0, "ProtocolError": 0}
    for label in sorted(frames):
        for _ in range(40):
            outcome = _bounded(_mutated(frames[label], rng))
            outcomes[
                type(outcome).__name__ if isinstance(outcome, Exception)
                else "message"
            ] += 1
    # The sweep reaches all three outcomes, not just the CRC check.
    assert all(outcomes.values()), outcomes


def test_truncation_at_every_offset(frames, traced):
    """Cut short, a frame just waits; cut short behind a header that
    vouches for the cut, it is a frame error — at every offset."""
    for label in sorted(frames):
        frame = frames[label]
        payload = frame[_HEADER.size:]
        step = 1 if len(frame) < 1024 else 97
        for cut in range(0, len(frame), step):
            decoder = FrameDecoder()
            assert decoder.feed(frame[:cut]) == []
            assert len(decoder._buf) == cut
        for cut in range(0, len(payload), step):
            outcome = _bounded(stamped(payload[:cut]))
            assert isinstance(outcome, FrameError), (label, cut)


@given(st.integers(0, 2**32 - 1))
def test_generated_mutation_chains(frames, seed):
    """Several mutations stacked on one frame, then the stream cut or
    followed by an intact frame."""
    rng = random.Random(seed)
    labels = sorted(frames)
    stream = frames[rng.choice(labels)]
    for _ in range(rng.randint(1, 4)):
        if len(stream) <= _HEADER.size + 1:
            break
        stream = _mutated(stream, rng)
    if rng.random() < 0.5:
        stream += frames[rng.choice(labels)]
    try:
        receive(stream[:rng.randint(0, len(stream))])
        receive(stream)
    except ProtocolError:
        pass


@given(st.binary(max_size=256))
def test_arbitrary_payload_behind_a_valid_header(payload):
    try:
        receive(stamped(payload))
    except ProtocolError:
        pass


# ---------------------------------------------------------------------------
# the four probes that escaped as other exception types, by name
# ---------------------------------------------------------------------------


def _request_doc(**changes):
    doc = {"t": "q", "id": 1, "op": 2, "args": [], "seq": 0,
           "session": 1, "arrival_us": 0.0, "flags": 0}
    doc.update(changes)
    return doc


NESTED_LISTS = stamped(b"\x07\x01\x00\x00\x00" * 5000 + b"\x00")
BAD_UTF8_STRING = stamped(b"\x06\x02\x00\x00\x00\xff\xfe")
BAD_UTF8_KEY = stamped(b"\x09\x01\x00\x00\x00\x02\x00\x00\x00\xff\xfe\x00")
STRING_ARRIVAL = encode_frame(_request_doc(arrival_us="x"))
INT_ARGS = encode_frame(_request_doc(args=5))
PROBES = {
    "nested_lists_were_a_recursion_error": (NESTED_LISTS, FrameError),
    "bad_utf8_string_was_a_unicode_error": (BAD_UTF8_STRING, FrameError),
    "bad_utf8_dict_key_was_a_unicode_error": (BAD_UTF8_KEY, FrameError),
    "string_arrival_us_was_a_value_error": (STRING_ARRIVAL, ProtocolError),
    "int_args_was_a_type_error": (INT_ARGS, ProtocolError),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_is_a_bounded_protocol_error(probe, traced):
    stream, expected = PROBES[probe]
    outcome = _bounded(stream)
    assert type(outcome) is expected, outcome


def test_nesting_is_capped_not_merely_survived():
    def nested(depth):
        value = 1
        for _ in range(depth):
            value = [value]
        out = bytearray()
        encode_value(value, out)
        return bytes(out)

    assert decode_value(nested(MAX_DEPTH)) is not None
    with pytest.raises(ProtocolError, match="nests deeper"):
        decode_value(nested(MAX_DEPTH + 1))


@pytest.mark.parametrize("field, value", [
    ("id", "1"), ("op", 2.0), ("seq", None), ("session", b"s"),
    ("arrival_us", 3), ("arrival_us", float("nan")), ("flags", [1]),
    ("args", {"a": 1}),
])
def test_request_fields_are_type_checked(field, value):
    with pytest.raises(ProtocolError, match=field):
        receive(encode_frame(_request_doc(**{field: value})))


def test_response_fields_are_type_checked():
    payload = decode_value(
        Response(id=1, kind="time").encode()[_HEADER.size:]
    )
    for field, value in [
        ("id", None), ("status", "0"), ("kind", 4), ("done_us", "1"),
        ("arrival_us", float("inf")), ("io_reads", 1.5),
        ("redo_bytes", b""), ("queue_depth", None), ("error", 0),
    ]:
        with pytest.raises(ProtocolError, match=field):
            receive(encode_frame({**payload, field: value}))
    missing = dict(payload)
    del missing["value"]
    with pytest.raises(ProtocolError, match="missing field 'value'"):
        receive(encode_frame(missing))


# ---------------------------------------------------------------------------
# the compiled layouts against the generic codec, both ways
# ---------------------------------------------------------------------------

#: Eight-byte values to drop onto a payload's int and float fields.
FIELD_VALUES = [
    *(struct.pack("<d", x) for x in (math.nan, math.inf, -math.inf, -0.0)),
    *(struct.pack("<q", x) for x in (250, -1, 2**63 - 1, -(2**63))),
]
INTS = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.booleans(),
    st.sampled_from([2**63, -(2**63) - 1, 2**100]),
)
VALUES = st.recursive(
    st.none() | INTS | st.floats() | st.binary(max_size=32)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
ARGS = {
    int: INTS,
    str: st.text(max_size=12),
    bytes: st.binary(max_size=48) | st.binary(max_size=8).map(bytearray),
    list: st.lists(VALUES, max_size=3),
}
TIMES = st.floats() | st.integers(-(2**53), 2**53)


def _outcome(call, *args):
    """What ``call`` returns, or the type and text of what it raised."""
    try:
        return repr(call(*args))
    except Exception as exc:  # compared below, never swallowed
        return type(exc), str(exc)


def _generic_receive(stream: bytes) -> list:
    """``receive`` with the compiled layouts switched off: every payload
    takes ``decode_value`` then ``decode_message``."""
    with mock.patch.object(protocol, "_decode_canonical", lambda _: None):
        return receive(stream)


def _same_either_way(stream: bytes) -> None:
    compiled = _outcome(receive, stream)
    assert compiled == _outcome(_generic_receive, stream), stream[:96]


def _nested(levels: int):
    value = 1
    for _ in range(levels):
        value = [value]
    return value


#: Requests whose layout leaves an arg's type open, or fixes it and
#: meets another: one bool, and rows whose deepest value sits at and one
#: past :data:`MAX_DEPTH` (the args list nests at 1, an arg at 2).
EDGE_FRAMES = [
    encode_frame(_request_doc(op=code, args=args)) for code, args in (
        (22, [5]),
        (16, ["t", {"rows": 1}]),
        (14, ["t", 1, True]),
        (16, ["t", _nested(MAX_DEPTH - 2)]),
        (16, ["t", _nested(MAX_DEPTH - 1)]),
    )
]


def _field_overwritten(frame: bytes, rng: random.Random) -> bytes:
    """One int or float field of the payload given a hostile value."""
    payload = bytearray(frame[_HEADER.size:])
    fields = [at + 1 for at, tag in enumerate(payload[:-8]) if tag in (3, 4)]
    if fields:
        at = rng.choice(fields)
        payload[at:at + 8] = rng.choice(FIELD_VALUES)
    return stamped(bytes(payload))


def test_compiled_decode_matches_the_generic_path_on_the_sweep(frames):
    for frame in EDGE_FRAMES:
        _same_either_way(frame)
    rng = random.Random("wire-differential")
    for label in sorted(frames):
        frame = frames[label]
        _same_either_way(frame)
        for _ in range(20):
            _same_either_way(_mutated(frame, rng))
            _same_either_way(_field_overwritten(frame, rng))


@given(st.integers(0, 2**32 - 1))
def test_compiled_decode_matches_the_generic_path(frames, seed):
    rng = random.Random(seed)
    stream = frames[rng.choice(sorted(frames))]
    for _ in range(rng.randint(1, 3)):
        mutate = rng.choice((_mutated, _field_overwritten))
        if len(stream) > _HEADER.size + 8:
            stream = mutate(stream, rng)
    _same_either_way(stream)


@st.composite
def _messages(draw):
    if draw(st.booleans()):
        spec = draw(st.sampled_from(OPS))
        return Request(
            id=draw(INTS), op=spec.name,
            args=[draw(ARGS[arg.types[0]]) for arg in spec.args],
            seq=draw(INTS), session=draw(INTS), arrival_us=draw(TIMES),
            flags=draw(INTS),
        )
    return Response(
        id=draw(INTS), status=draw(INTS), kind=draw(st.text(max_size=8)),
        value=draw(VALUES), done_us=draw(TIMES), arrival_us=draw(TIMES),
        io_reads=draw(INTS), redo_bytes=draw(INTS), queue_depth=draw(INTS),
        error=draw(st.text(max_size=12)),
    )


def _generic_doc(message) -> dict:
    """The payload dict the generic codec writes for ``message``."""
    request = isinstance(message, Request)
    doc = {"t": "q" if request else "r"}
    for name, kind in message._WIRE:
        value = getattr(message, name)
        doc[name] = float(value) if kind is float else value
    if request:
        doc["op"] = message.spec.code
        doc["args"] = list(message.args)
    return doc


@given(_messages())
def test_compiled_encode_matches_the_generic_codec(message):
    frame = message.encode()
    assert frame == encode_frame(_generic_doc(message))
    _same_either_way(frame)


# ---------------------------------------------------------------------------
# the server survives them; the client pool fails fast on them
# ---------------------------------------------------------------------------


def _exchange(addr, stream: bytes) -> bytes:
    """Send ``stream`` on a fresh connection; whatever comes back until
    the server closes or goes quiet."""
    with socket.create_connection(addr, timeout=5.0) as sock:
        sock.sendall(stream)
        sock.settimeout(0.5)
        received = b""
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except socket.timeout:
            pass
        return received


def test_server_counts_each_probe_and_serves_the_next_connection(caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    handle = serve_in_thread(
        ReproConfig.from_dict({"engine": {"enabled": True}}), port=0
    )
    counter = handle.server.registry.counter("net.server.frame_errors")
    try:
        for number, probe in enumerate(sorted(PROBES), 1):
            stream, expected = PROBES[probe]
            reply = _exchange(handle.addr, stream)
            assert counter.value == number, probe
            if expected is ProtocolError:
                # The frame was sound and carried an id: answered.
                (response,) = receive(reply)
                assert not response.ok and response.id == 1
                assert "ProtocolError" in response.error
            else:
                assert reply == b""  # framing lost: connection dropped
            client = PolarStore.connect(handle.addr, timeout_s=10.0)
            try:
                assert client.transport.ping() >= 0.0
            finally:
                client.close()
    finally:
        handle.stop()
    gc.collect()
    assert not [r for r in caplog.records if "never retrieved" in r.message]


def test_pipelined_op_whose_generator_cannot_be_built_is_one_error_reply():
    """``ro_index`` is well-typed but names no RO node: the failure is
    that op's reply, not the connection's death."""
    handle = serve_in_thread(
        ReproConfig.from_dict({"engine": {"enabled": True}}), port=0
    )
    transport = SocketTransport(handle.addr, timeout_s=10.0)
    try:
        transport.call("create_table", "t")
        transport.call("insert", "t", 1, b"row")
        future = transport.submit("select", "t", 1, 99)
        transport.flush()
        response = transport.pool.wait(future)
        assert not response.ok and "IndexError" in response.error
        assert transport.call("select", "t", 1).value == b"row"
    finally:
        transport.close()
        handle.stop()


def _mute_then_hostile_server(hostile: bytes):
    """A listener that completes the handshake, then answers the first
    request with ``hostile`` and nothing more."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        with conn:
            decoder = FrameDecoder()
            seen = []
            while len(seen) < 2:
                data = conn.recv(65536)
                if not data:
                    return
                for payload in decoder.feed(data):
                    seen.append(decode_message(payload))
                    if len(seen) == 1:
                        conn.sendall(Response(
                            id=seen[0].id, kind="hello",
                            value={"version": VERSION, "sharded": False},
                        ).encode())
            conn.sendall(hostile)
            conn.recv(65536)  # hold the socket open until the client leaves

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


@pytest.mark.parametrize("hostile", [
    BAD_UTF8_STRING,
    encode_frame({"t": "r", "id": 2, "status": "fine"}),
], ids=["frame_error", "protocol_error"])
def test_pool_fails_inflight_requests_on_an_undecodable_reply(hostile, caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    listener, thread = _mute_then_hostile_server(hostile)
    transport = SocketTransport(listener.getsockname(), timeout_s=10.0)
    try:
        started = time.perf_counter()
        with pytest.raises(TransportError, match="undecodable reply"):
            transport.call("checkpoint")
        assert time.perf_counter() - started < 5.0  # failed, not timed out
    finally:
        transport.close()
        listener.close()
        thread.join(timeout=5.0)
    gc.collect()
    assert not [r for r in caplog.records if "never retrieved" in r.message]

