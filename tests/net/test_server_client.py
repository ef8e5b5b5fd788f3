"""The serving layer end to end: loopback server, one-connection
client, golden equivalence against in-process access."""

import logging
import os
import select
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.api import (
    PolarStore,
    ReproConfig,
    TransportCapabilityError,
    TransportError,
    TransportTimeout,
)
from repro.net.client import SocketTransport, parse_addr
from repro.net.protocol import (
    FLAG_SYNC,
    STATUS_ERROR,
    VERSION,
    FrameDecoder,
    Request,
    Response,
    decode_message,
)
from repro.net.server import PolarStoreServer, serve_in_thread


def _config(**doc):
    base = {"engine": {"enabled": True}}
    base.update(doc)
    return ReproConfig.from_dict(base)


@pytest.fixture()
def server():
    handle = serve_in_thread(_config(), port=0)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    handle = PolarStore.connect(server.addr, timeout_s=10.0)
    yield handle
    handle.close()


def test_parse_addr_forms():
    assert parse_addr("127.0.0.1:7411") == ("127.0.0.1", 7411)
    assert parse_addr(("localhost", 9)) == ("localhost", 9)
    with pytest.raises(TransportError):
        parse_addr("no-port")


def test_parse_addr_rejects_a_port_that_is_not_a_number():
    with pytest.raises(TransportError, match="integer"):
        parse_addr("127.0.0.1:abc")


def test_parse_addr_rejects_a_port_outside_the_tcp_range():
    for addr in ("127.0.0.1:65536", ("127.0.0.1", -1)):
        with pytest.raises(TransportError, match="0-65535"):
            parse_addr(addr)


def test_handshake_and_basic_ops(client):
    assert client.transport.kind == "socket"
    assert client.transport.pool.hello["version"] == 1
    assert client.sharded is False
    client.create_table("t")
    insert = client.insert("t", 1, b"payload")
    assert insert.redo_bytes > 0
    select = client.select("t", 1)
    assert select.value == b"payload"
    assert select.done_us > insert.done_us
    assert client.now_us >= select.done_us
    assert client.compression_ratio() > 0.0
    assert client.transport.ping() >= 0.0


def test_remote_errors_are_per_request(client):
    client.create_table("t")
    with pytest.raises(TransportError, match="update of missing key"):
        client.update("t", 404, b"x")
    # The connection survives the failed request.
    assert client.insert("t", 404, b"x").done_us > 0


def test_capability_errors_on_remote_client(client):
    for access in (
        lambda: client.db,
        lambda: client.store,
        lambda: client.runtime,
        lambda: client.engine,
        lambda: client.metrics,
        lambda: client.config,
        lambda: client.bind_engine(object()),
        lambda: client.insert_proc("t", 1, b"v"),
    ):
        with pytest.raises(TransportCapabilityError):
            access()


def test_golden_equivalence_local_vs_socket(server):
    """The acceptance gate: one seeded op sequence produces identical
    payload bytes and simulated timings over both transports."""
    ops = [
        ("insert", 1, b"a" * 48),
        ("insert", 2, b"b" * 48),
        ("select", 1),
        ("update", 1, b"c" * 48),
        ("select", 1),
        ("delete", 2),
        ("range_select", 0, 10),
    ]

    def drive(handle):
        handle.create_table("g")
        trace = []
        for name, *args in ops:
            result = getattr(handle, name)("g", *args)
            trace.append(
                (result.done_us, result.io_reads,
                 result.redo_bytes, result.value)
            )
        trace.append(round(handle.compression_ratio(), 12))
        trace.append((handle.logical_bytes, handle.physical_bytes))
        trace.append(handle.checkpoint())
        return trace

    local = PolarStore.open(_config())
    golden = drive(local)
    remote = PolarStore.connect(server.addr, timeout_s=10.0)
    try:
        assert drive(remote) == golden
    finally:
        remote.close()


def test_sharded_deployment_over_socket():
    handle = serve_in_thread(_config(cluster={"shards": 2}), port=0)
    client = PolarStore.connect(handle.addr, timeout_s=10.0)
    try:
        assert client.sharded is True
        client.create_table("t")
        client.insert("t", 3, b"sharded-row")
        assert client.select("t", 3).value == b"sharded-row"
        logical, physical = client.transport.call("space")
        assert logical >= 0 and physical >= 0
    finally:
        client.close()
        handle.stop()


def test_pipelined_submit_flush_and_rejection():
    handle = serve_in_thread(_config(net={"window": 4}), port=0)
    transport = SocketTransport(handle.addr, timeout_s=10.0)
    try:
        transport.call("create_table", "t")
        futures = [
            transport.submit("insert", "t", i, b"z" * 24,
                             arrival_us=float(i))
            for i in range(32)
        ]
        transport.flush()
        statuses = [transport.pool.wait(f) for f in futures]
        admitted = [r for r in statuses if r.ok]
        rejected = [r for r in statuses if r.rejected]
        assert len(admitted) + len(rejected) == 32
        assert rejected, "a window of 4 must shed simultaneous arrivals"
        assert all(r.queue_depth >= 4 for r in rejected)
        for response in admitted:
            assert response.done_us >= response.arrival_us
    finally:
        transport.close()
        handle.stop()


def test_stats_reflect_admission_accounting():
    handle = serve_in_thread(_config(net={"window": 2}), port=0)
    transport = SocketTransport(handle.addr, timeout_s=10.0)
    try:
        transport.call("create_table", "t")
        futures = [
            transport.submit("insert", "t", i, b"s" * 8, arrival_us=0.0)
            for i in range(6)
        ]
        transport.flush()
        for future in futures:
            transport.pool.wait(future)
        stats = transport.stats()
        assert stats["admitted"] == 2
        assert stats["rejected"] == 4
        assert stats["completed"] == 2
        assert stats["queue_depth"] == 0
    finally:
        transport.close()
        handle.stop()


def test_a_pipelined_burst_then_flush_gets_every_reply():
    """300 pipelined inserts at one arrival, then a flush: every op
    goes on the wire as it is submitted, so the flush is a barrier
    behind all of them and answers each one."""
    handle = serve_in_thread(_config(net={"window": 1000}), port=0)
    transport = SocketTransport(handle.addr, timeout_s=5.0)
    try:
        transport.call("create_table", "t")
        futures = [
            transport.submit("insert", "t", i, b"b" * 8, arrival_us=0.0)
            for i in range(300)
        ]
        transport.flush()
        assert all(transport.pool.wait(f).ok for f in futures)
    finally:
        transport.close()
        handle.stop()


def test_close_fails_pipelined_replies_in_flight(server):
    transport = SocketTransport(server.addr, timeout_s=10.0)
    try:
        transport.call("create_table", "t")
        # Pipelined ops at one arrival: the engine holds their replies.
        futures = [
            transport.submit("insert", "t", i, b"a", arrival_us=0.0)
            for i in range(2)
        ]
    finally:
        transport.close()
    for future in futures:
        with pytest.raises(TransportError, match="pool closed"):
            transport.pool.wait(future)


@pytest.mark.parametrize("kind", ["local", "socket"])
def test_a_closed_client_raises_transport_error(server, kind):
    """Both transports refuse an op after ``close()`` with a
    TransportError (not an AttributeError off a dropped backend), and
    closing twice is harmless."""
    if kind == "local":
        client = PolarStore.open(engine={"enabled": True})
    else:
        client = PolarStore.connect(server.addr, timeout_s=10.0)
    client.create_table("t")
    client.insert("t", 1, b"v")
    client.close()
    client.close()
    with pytest.raises(TransportError, match="closed"):
        client.write_page(0, b"p" * 16384)
    with pytest.raises(TransportError, match="closed"):
        client.select("t", 1)


def test_mid_stream_disconnect_fails_inflight_without_hanging(server):
    transport = SocketTransport(server.addr, timeout_s=10.0)
    try:
        transport.call("create_table", "t")
        # Park requests the server will never answer on this connection:
        # pipelined ops whose completions wait on a future drain...
        futures = [
            transport.submit("insert", "t", i, b"h" * 16, arrival_us=0.0)
            for i in range(3)
        ]
        # ...then sever the TCP stream underneath them.
        transport.pool._sock.shutdown(socket.SHUT_RDWR)
        for future in futures:
            with pytest.raises(TransportError):
                transport.pool.wait(future)
    finally:
        transport.close()


def test_a_timed_out_reply_is_dropped_and_its_late_response_discarded(
    server,
):
    transport = SocketTransport(server.addr, timeout_s=10.0)
    pool = transport.pool
    try:
        transport.call("create_table", "t")
        # A pipelined insert's reply waits for a later drain.
        reply = transport.submit("insert", "t", 1, b"late", arrival_us=0.0)
        pool.timeout_s = 0.2
        with pytest.raises(TransportTimeout):
            pool.wait(reply)
        pool.timeout_s = 10.0
        transport.flush()  # the insert's late response comes back first
        assert pool._pending == {}
        assert not reply.done  # discarded, not settled
        assert transport.call("select", "t", 1).value == b"late"
    finally:
        transport.close()


def test_a_server_process_killed_mid_stream_fails_inflight_at_once():
    """``SIGKILL`` a real ``repro serve`` under three pipelined inserts:
    each fails as a lost connection, not a timeout, and the next call
    is refused."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    transport = None
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        banner = proc.stdout.readline() if ready else ""
        # "serving PolarStore on 127.0.0.1:43713 (window 64, ..."
        assert banner.startswith("serving PolarStore on "), banner
        addr = banner.split(" on ", 1)[1].split(" ", 1)[0]
        transport = SocketTransport(addr, timeout_s=10.0)
        transport.call("create_table", "t")
        replies = [
            transport.submit("insert", "t", i, b"k" * 16, arrival_us=0.0)
            for i in range(3)
        ]
        proc.kill()
        started = time.monotonic()
        for reply in replies:
            with pytest.raises(TransportError, match="connection lost") as info:
                transport.pool.wait(reply)
            assert not isinstance(info.value, TransportTimeout)
        assert time.monotonic() - started < 5.0
        with pytest.raises(TransportError, match="the connection is down"):
            transport.call("select", "t", 0)
    finally:
        if transport is not None:
            transport.close()
        proc.kill()
        proc.wait(timeout=10.0)
        proc.stdout.close()


def test_pool_does_its_io_on_the_callers_thread(server):
    before = threading.active_count()
    client = PolarStore.connect(server.addr, timeout_s=10.0)
    try:
        client.create_table("t")
        assert threading.active_count() == before
    finally:
        client.close()
    assert threading.active_count() == before


def test_pipelining_past_the_socket_buffers_does_not_deadlock():
    """3 000 pipelined 6 KiB updates, each read back: requests and
    replies both overflow the loopback buffers.  The server stops
    reading while its replies back up, so the pump must read while it
    cannot write."""
    handle = serve_in_thread(_config(net={"window": 1}), port=0)
    steps = 3000
    transport = SocketTransport(handle.addr, timeout_s=60.0)
    try:
        transport.call("create_table", "t")
        transport.call("insert", "t", 0, b"")
        started = time.monotonic()
        futures = []
        for step in range(steps):
            # Spaced arrivals: a window of 1 admits each op in turn.
            arrival = transport.now_us + 1000.0 * (step + 1)
            futures.append(transport.submit(
                "update", "t", 0, bytes([step % 256]) * 6144,
                arrival_us=arrival,
            ))
            futures.append(transport.submit(
                "select", "t", 0, arrival_us=arrival + 500.0
            ))
        transport.flush()
        responses = [transport.pool.wait(f) for f in futures]
        assert time.monotonic() - started < 60.0
        assert all(r.ok for r in responses)
        for step, response in enumerate(responses[1::2]):
            assert response.value == bytes([step % 256]) * 6144
    finally:
        transport.close()
        handle.stop()


def _send_until_closed(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    except OSError:
        pass  # the test closed the socket first


def test_a_connection_that_never_reads_does_not_starve_another(server):
    """Connection A pipelines closed-loop inserts (about 10 s of server
    work) and never reads a reply; connection B's select is still served
    within seconds."""
    client = PolarStore.connect(server.addr, timeout_s=10.0)
    client.create_table("t")
    client.insert("t", 10**6, b"row")
    frames = b"".join(
        Request(
            id=key + 2, op="insert", args=["t", key, b"f" * 64],
            seq=key, session=1, flags=FLAG_SYNC,
        ).encode()
        for key in range(20_000)
    )
    flood = socket.create_connection(server.addr, timeout=30.0)
    flood.sendall(Request(id=1, op="hello", args=[1, VERSION]).encode())
    sender = threading.Thread(target=_send_until_closed,
                              args=(flood, frames), daemon=True)
    sender.start()
    try:
        # A's first replies are on the wire: the server is working on it.
        assert select.select([flood], [], [], 5.0)[0]
        started = time.monotonic()
        assert client.select("t", 10**6).value == b"row"
        assert time.monotonic() - started < 5.0
    finally:
        client.close()
        flood.close()
        sender.join(timeout=10.0)
    assert not sender.is_alive()


def test_an_unexpected_error_closes_only_its_connection(
    server, monkeypatch, caplog
):
    def broken(self, req):
        raise RuntimeError("stats broke")

    monkeypatch.setattr(PolarStoreServer, "_session_stats", broken)
    caplog.set_level(logging.ERROR, logger="repro.net.server")
    victim = SocketTransport(server.addr, timeout_s=10.0)
    try:
        started = time.monotonic()
        with pytest.raises(TransportError) as failed:
            victim.stats()
        assert not isinstance(failed.value, TransportTimeout)
        assert time.monotonic() - started < 5.0
    finally:
        victim.close()
    assert any(isinstance(r.exc_info[1], RuntimeError)
               for r in caplog.records if r.exc_info)
    client = PolarStore.connect(server.addr, timeout_s=10.0)
    try:
        assert client.transport.ping() >= 0.0
    finally:
        client.close()


def test_stop_is_prompt_and_fails_a_connected_client():
    handle = serve_in_thread(_config(), port=0)
    transport = SocketTransport(handle.addr, timeout_s=10.0)
    try:
        transport.call("create_table", "t")
        started = time.monotonic()
        handle.stop()
        assert time.monotonic() - started < 1.0
        with pytest.raises(TransportError) as failed:
            transport.ping()
        assert not isinstance(failed.value, TransportTimeout)
        assert time.monotonic() - started < 5.0
    finally:
        transport.close()


def test_frame_ahead_of_the_connections_next_seq_is_refused_at_once(server):
    """Nothing is parked: TCP keeps one connection's frames in order, so
    a seq other than the next one is a client error, answered now."""
    with socket.create_connection(server.addr, timeout=5.0) as sock:
        decoder = FrameDecoder()
        replies = []

        def reply() -> Response:
            while not replies:
                data = sock.recv(65536)
                assert data, "server closed the connection"
                replies.extend(decoder.feed(data))
            return decode_message(replies.pop(0))

        sock.sendall(Request(id=1, op="hello", args=[777, VERSION]).encode())
        assert reply().ok
        sock.sendall(Request(id=2, op="flush", seq=1, session=777).encode())
        refused = reply()
        assert refused.id == 2
        assert refused.status == STATUS_ERROR
        assert "sequence violation" in refused.error
        # The refused frame took no slot: seq 0 is still the next one.
        sock.sendall(Request(id=3, op="flush", seq=0, session=777).encode())
        accepted = reply()
        assert accepted.id == 3 and accepted.ok


def test_sessions_counts_open_connections_not_every_client_ever(server):
    for _ in range(5):
        PolarStore.connect(server.addr, timeout_s=10.0).close()
    client = PolarStore.connect(server.addr, timeout_s=10.0)
    try:
        # The server sees each close on its own loop; give it a moment.
        deadline = time.monotonic() + 5.0
        while (client.transport.stats()["sessions"] != 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert client.transport.stats()["sessions"] == 1
    finally:
        client.close()


def test_a_client_is_one_connection():
    with pytest.raises(ValueError, match="one connection"):
        PolarStore.connect(("127.0.0.1", 1), connections=2)


def test_server_is_always_engine_bound():
    assert PolarStoreServer().transport.engine is not None
    with pytest.raises(ValueError, match="engine.enabled"):
        PolarStoreServer(
            ReproConfig.from_dict({"engine": {"enabled": False}})
        )


def test_timeout_against_a_mute_server():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    accepted = []

    def accept_loop():
        try:
            while True:
                conn, _ = listener.accept()
                accepted.append(conn)  # read nothing, reply nothing
        except OSError:
            pass

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        with pytest.raises(TransportTimeout):
            SocketTransport(
                listener.getsockname(), timeout_s=0.5
            )
    finally:
        listener.close()
        for conn in accepted:
            conn.close()


def test_connect_refused_is_a_transport_error():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    free_port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(TransportError):
        SocketTransport(("127.0.0.1", free_port), timeout_s=2.0)
