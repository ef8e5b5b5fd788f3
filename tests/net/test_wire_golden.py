"""The wire is ABI: the bytes of every request and reply are frozen.

``golden/frames.json`` was written by the commit *before* the op table
moved into :mod:`repro.common.ops` and is not edited afterwards: every
later server and client must put exactly those frames on the wire for
the conversation in :mod:`tests.net.wire_frames`.

``python tests/net/test_wire_golden.py`` rewrites the JSON from the
code under ``src/``; do that only for a deliberate protocol change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.net.protocol import OPS, FrameDecoder, decode_message
from tests.net.wire_frames import SHARDED, SINGLE, capture

GOLDEN = Path(__file__).parent / "golden" / "frames.json"


def _digests(frames):
    return {
        label: hashlib.sha256(frame).hexdigest()
        for label, frame in sorted(frames.items())
    }


@pytest.fixture(scope="module")
def frames():
    return capture()


def test_conversation_covers_every_op_an_error_and_a_rejection(frames):
    assert {op for op, _, _ in SINGLE} == {spec.name for spec in OPS}
    assert ("select", ["t", 3, -1], False) in SHARDED
    replies = {
        label: decode_message(FrameDecoder().feed(frame)[0])
        for label, frame in frames.items() if label.endswith("/response")
    }
    assert len(replies) == len(SINGLE) + len(SHARDED)
    assert not replies["single/18-update/response"].ok
    assert "missing key" in replies["single/18-update/response"].error
    assert replies["single/19-insert/response"].ok
    assert replies["single/20-insert/response"].rejected
    assert replies["sharded/04-select/response"].value == b"sharded-row"


def test_every_frame_is_byte_identical_to_the_recorded_wire(frames):
    golden = json.loads(GOLDEN.read_text())
    fresh = _digests(frames)
    assert set(fresh) == set(golden)
    changed = [label for label in golden if fresh[label] != golden[label]]
    assert not changed, changed


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_digests(capture()), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
