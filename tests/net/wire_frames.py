"""One fixed conversation per deployment shape against a real loopback
server, captured as raw frames.

The requests are built with :class:`Request` and written to a plain
socket; the replies are cut out of the byte stream by the frame header
alone, so what is captured is exactly what crosses the wire.  Simulated
time is deterministic per seed, so the reply bytes are too.

The conversation covers every row of the op table (the sharded server
repeats ``select``, whose ``ro_index`` a sharded backend drops), one
request that fails and one that admission control rejects.
"""

import socket
import struct
from typing import Dict, List, Tuple

from repro.api import ReproConfig
from repro.net.protocol import FLAG_SYNC, Request, decode_value
from repro.net.server import serve_in_thread

_HEADER = struct.Struct("<2sBII")
SESSION = 7
PAGE = bytes(range(256)) * 64  # one 16 KiB page

#: (op, args, pipelined) — ids and sequence numbers follow list order.
SINGLE = [
    ("hello", [SESSION, 1], False),
    ("create_table", ["t"], False),
    ("insert", ["t", 1, b"a" * 48], False),
    ("update", ["t", 1, b"b" * 48], False),
    ("select", ["t", 1, -1], False),
    ("range_select", ["t", 0, 10], False),
    ("delete", ["t", 1], False),
    ("bulk_load", ["t", [[10, b"x" * 32], [11, b"y" * 32]]], False),
    ("checkpoint", [], False),
    ("write_page", [900, PAGE], False),
    ("read_page", [900], False),
    ("archive_range", [[900]], False),
    ("scrub", [], False),
    ("compression_ratio", [], False),
    ("space", [], False),
    ("ping", [], False),
    ("stats", [], False),
    ("update", ["t", 404, b"missing"], False),   # replies STATUS_ERROR
    ("insert", ["t", 20, b"p" * 24], True),      # admitted, replies at flush
    ("insert", ["t", 21, b"q" * 24], True),      # window of 1: rejected
    ("flush", [], False),
]
SHARDED = [
    ("hello", [SESSION, 1], False),
    ("create_table", ["t"], False),
    ("insert", ["t", 3, b"sharded-row"], False),
    ("select", ["t", 3, -1], False),
]
CONTROL = {"hello", "ping", "stats"}


def _requests(script) -> List[Tuple[str, Request]]:
    out, seq = [], 0
    for index, (op, args, pipelined) in enumerate(script, 1):
        if op in CONTROL:
            request = Request(id=index, op=op, args=args)
        else:
            closed_loop = not pipelined and op != "flush"
            request = Request(
                id=index, op=op, args=args, seq=seq, session=SESSION,
                flags=FLAG_SYNC if closed_loop else 0,
            )
            seq += 1
        out.append((f"{index:02d}-{op}", request))
    return out


def _read_frame(sock: socket.socket, buf: bytearray) -> bytes:
    """The next whole frame off ``sock``, raw."""
    while True:
        if len(buf) >= _HEADER.size:
            end = _HEADER.size + _HEADER.unpack_from(buf)[2]
            if len(buf) >= end:
                frame = bytes(buf[:end])
                del buf[:end]
                return frame
        chunk = sock.recv(64 * 1024)
        if not chunk:
            raise ConnectionError("server closed mid-conversation")
        buf += chunk


def _converse(shape: str, config: dict, script, frames: Dict[str, bytes]):
    handle = serve_in_thread(ReproConfig.from_dict(config), port=0)
    try:
        with socket.create_connection(handle.addr, timeout=10.0) as sock:
            buf = bytearray()
            labels = {}
            for label, request in _requests(script):
                labels[request.id] = label
                frames[f"{shape}/{label}/request"] = request.encode()
                sock.sendall(request.encode())
            # Every request is answered exactly once; the admitted
            # pipelined insert's reply arrives with the flush.
            for _ in labels:
                frame = _read_frame(sock, buf)
                reply_id = decode_value(frame[_HEADER.size:])["id"]
                frames[f"{shape}/{labels[reply_id]}/response"] = frame
    finally:
        handle.stop()


def capture() -> Dict[str, bytes]:
    """label -> raw frame, for both conversations."""
    frames: Dict[str, bytes] = {}
    _converse(
        "single", {"engine": {"enabled": True}, "net": {"window": 1}},
        SINGLE, frames,
    )
    _converse(
        "sharded", {"engine": {"enabled": True}, "cluster": {"shards": 2}},
        SHARDED, frames,
    )
    return frames
