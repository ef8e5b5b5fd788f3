"""Wire codec micro-benchmarks (real wall time, not simulated).

The rows a change to ``repro.net.protocol`` can move, on the frames
``benchmarks/e2e``'s ``serve_loopback`` sends most: the golden
conversation's (``tests/net/wire_frames.py``) ``select``, ``update`` and
``insert`` requests and their replies.  Each frame is encoded and
decoded twice:

- ``compiled``: what the server and the client run — ``encode()`` on
  the message, ``FrameDecoder.feed`` on the frame (header and CRC
  included), both through the message's compiled layout;
- ``generic``: the tagged value codec on the same payload dict —
  ``encode_frame`` of the dict, ``decode_value`` then
  ``decode_message`` on the payload (no header, no CRC).

Both give the same bytes and the same message.  Writes nothing under
``benchmarks/results/``.
"""

import pytest

from repro.net.protocol import (
    FrameDecoder,
    decode_message,
    decode_value,
    encode_frame,
)
from tests.net.wire_frames import capture

HEADER_BYTES = 11
LABELS = [
    f"single/{step}/{side}"
    for step in ("05-select", "04-update", "03-insert")
    for side in ("request", "response")
]


@pytest.fixture(scope="module")
def frames():
    captured = capture()
    return {label: captured[label] for label in LABELS}


def _compiled_decode(frame):
    (message,) = FrameDecoder().feed(frame)
    return decode_message(message)


def _generic_decode(frame):
    return decode_message(decode_value(frame[HEADER_BYTES:]))


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("path", ["compiled", "generic"])
def test_encode(benchmark, frames, label, path):
    frame = frames[label]
    if path == "compiled":
        encode = _compiled_decode(frame).encode
    else:
        doc = decode_value(frame[HEADER_BYTES:])

        def encode():
            return encode_frame(doc)

    assert benchmark(encode) == frame


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("path", ["compiled", "generic"])
def test_decode(benchmark, frames, label, path):
    frame = frames[label]
    decode = _compiled_decode if path == "compiled" else _generic_decode
    message = benchmark(decode, frame)
    assert message == _generic_decode(frame)
    assert message.encode() == frame
