"""The op table, row by row: what a local call returns is what the wire
hands back, and the wire refuses what the row does not declare."""

import dataclasses

import pytest

from repro.api import TRANSPORT_OPS, LocalTransport, ReproConfig
from repro.common.ops import OPS, OPS_BY_CODE, OPS_BY_NAME, RESULT_KINDS
from repro.net.protocol import (
    FrameDecoder,
    ProtocolError,
    Request,
    check_args,
    decode_message,
)
from repro.net.server import _result_reply

PAGE = bytes(range(256)) * 64

#: One call per data row, in an order a fresh deployment can execute.
CALLS = {
    "create_table": ("t",),
    "insert": ("t", 1, bytearray(b"a" * 48)),
    "update": ("t", 1, b"b" * 48),
    "select": ("t", 1),
    "range_select": ("t", 0, 10),
    "delete": ("t", 1),
    "bulk_load": ("t", [(10, b"x" * 32), (11, bytearray(b"y" * 32))]),
    "checkpoint": (),
    "write_page": (900, PAGE),
    "read_page": (900,),
    "archive_range": ([900],),
    "scrub": (),
    "compression_ratio": (),
    "space": (),
}
SHAPES = {
    "single": {"engine": {"enabled": True}},
    "sharded": {"engine": {"enabled": True}, "cluster": {"shards": 2}},
}


def test_the_views_are_derived_from_the_one_table():
    assert list(OPS_BY_NAME.values()) == list(OPS)
    assert list(OPS_BY_CODE) == [spec.code for spec in OPS]
    data_rows = [spec for spec in OPS if spec.target != "session"]
    assert TRANSPORT_OPS == tuple(spec.name for spec in data_rows)
    assert set(CALLS) == set(TRANSPORT_OPS)
    assert {spec.kind for spec in data_rows} == set(RESULT_KINDS)
    # A session op is the server's own; no transport executes it.
    for spec in OPS:
        assert (spec.target == "session") == (spec.name not in CALLS)
        assert not (spec.control and spec.target != "session")


def _over_the_wire(spec, result, now_us):
    """result -> reply -> frame -> reply -> result, as the server sends
    it and the socket client rebuilds it."""
    kind = RESULT_KINDS[spec.kind]
    request = Request(id=7, op=spec.name, args=spec.bind(CALLS[spec.name], {}))
    reply = _result_reply(
        request, result,
        done_us=now_us if kind.done_us is None else kind.done_us(result),
    )
    (payload,) = FrameDecoder().feed(reply.encode())
    return kind.from_wire(decode_message(payload))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_data_row_round_trips_to_the_local_result(shape):
    transport = LocalTransport(ReproConfig.from_dict(SHAPES[shape]))
    executed = []
    for op, args in CALLS.items():
        spec = OPS_BY_NAME[op]
        if transport.sharded and spec.target == "store":
            continue  # a sharded deployment has no single volume
        local = transport.call(op, *args)
        remote = _over_the_wire(spec, local, transport.now_us)
        if spec.kind == "commit":
            # ``prepared`` holds in-process page buffers; it stays home.
            local = dataclasses.replace(local, prepared=None)
        assert remote == local and type(remote) is type(local), op
        executed.append(op)
    assert len(executed) == (10 if transport.sharded else len(CALLS))


@pytest.mark.parametrize("spec", OPS, ids=lambda spec: spec.name)
def test_check_args_rejects_wrong_arity_and_wrong_type_per_row(spec):
    if spec.name in CALLS:
        good = spec.bind(CALLS[spec.name], {})
    else:
        good = [1] * len(spec.args)  # hello's two ints; the rest take none
    assert check_args(spec, good) == good
    with pytest.raises(ProtocolError, match=f"takes {len(spec.args)} args"):
        check_args(spec, good + [0])
    for index, arg in enumerate(spec.args):
        with pytest.raises(ProtocolError, match=f"arg {arg.name!r}"):
            check_args(spec, good[:index] + [None] + good[index + 1:])
        with pytest.raises(ProtocolError, match="takes"):
            check_args(spec, good[:index] + good[index + 1:])


def test_bind_fills_defaults_takes_keywords_and_rejects_others():
    select = OPS_BY_NAME["select"]
    assert select.bind(("t", 1), {}) == ["t", 1, -1]
    assert select.bind(("t", 1), {"ro_index": 2}) == ["t", 1, 2]
    assert select.bind(("t", 1, 2), {}, sharded=True) == ["t", 1]
    write_page = OPS_BY_NAME["write_page"]
    assert write_page.bind((3, bytearray(b"p")), {}) == [3, b"p"]
    with pytest.raises(TypeError, match="takes no \\['mode'\\]"):
        write_page.bind((3, b"p"), {"mode": "heavy"})
    with pytest.raises(TypeError, match="needs 'key'"):
        select.bind(("t",), {})
    with pytest.raises(TypeError, match="takes 3 args"):
        select.bind(("t", 1, 2, 3), {})
