"""The PolarStore socket server: one engine-bound deployment, framed.

:class:`PolarStoreServer` hosts an engine-bound
:class:`~repro.api.transport.LocalTransport` (a real store or sharded
cluster) behind the :mod:`repro.net.protocol` wire format on a TCP
front-end that does its own I/O.  The design problem is determinism:
sockets deliver requests in wall-clock order, but the reproduction's
value is that simulated outcomes are a pure function of the seeded
workload.  Three mechanisms restore that property:

* **per-connection sequencing** — TCP delivers one connection's frames
  in order, and a client owns one connection, so each connection
  expects data ops at ``seq`` 0, 1, 2, ...; a frame carrying any other
  ``seq`` is refused at once (nothing is parked);
* **client-stamped simulated arrivals** — each op is bridged onto the
  engine at its ``arrival_us`` through a
  :class:`~repro.engine.bridge.WallClockBridge`, which drains earlier
  work first and evaluates the admission window at the simulated
  arrival instant;
* **open- vs closed-loop split** — a ``FLAG_SYNC`` op runs the engine
  until it completes and replies immediately (byte-for-byte the
  ``LocalTransport`` semantics, which the golden equivalence test
  checks); a pipelined op replies whenever a later arrival or an
  explicit ``flush`` drains the engine past its completion.

Wall-clock jitter therefore changes only *when* reply frames leave,
never their simulated timings or payload bytes.

Everything runs on one ``selectors`` loop on one thread: it accepts,
reads, decodes, runs the bridge and writes replies inline, so request
processing is serialized without locks.  ``python -m repro serve``
runs :meth:`PolarStoreServer.serve_forever`; :func:`serve_in_thread`
runs it on a background thread for tests and in-process tooling.
"""

from __future__ import annotations

import contextlib
import logging
import socket
import threading
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
from typing import Any, Dict, List, Optional, Tuple

from repro.api.config import ReproConfig
from repro.api.transport import LocalTransport
from repro.common.ops import RESULT_KINDS
from repro.engine.bridge import BridgeCompletion, WallClockBridge
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    STATUS_ERROR,
    STATUS_REJECTED,
    VERSION,
    FrameDecoder,
    FrameError,
    ProtocolError,
    Request,
    Response,
    decode_message,
)

#: Unsent reply bytes past which a connection is not read until they drain.
HIGH_WATER = 64 * 1024

#: Bytes one ``recv`` may return: a connection's share of one turn.
_RECV_BYTES = 64 * 1024


class _Connection:
    """One accepted socket and what the loop keeps for it."""

    __slots__ = ("sock", "decoder", "next_seq", "out", "events")

    def __init__(self, sock: socket.socket) -> None:
        self.sock: Optional[socket.socket] = sock  # None once closed
        self.decoder = FrameDecoder(MAX_FRAME_BYTES)
        self.next_seq = 0  # the data op this connection may send next
        self.out = bytearray()  # reply bytes the socket has not taken
        self.events = EVENT_READ  # the mask ``sock`` is registered with


class PolarStoreServer:
    """One PolarStore deployment served over TCP.

    ``config.net`` supplies the bind address, the bridge admission
    window, and the frame-size ceiling.  The deployment is always
    engine-bound and fronted by a :class:`WallClockBridge`: a config
    with ``engine.enabled`` false is refused, and no config means the
    default deployment with its engine on.
    """

    def __init__(self, config: Optional[ReproConfig] = None) -> None:
        if config is None:
            config = ReproConfig.from_dict({"engine": {"enabled": True}})
        if not config.engine.enabled:
            raise ValueError(
                "the server fronts an event engine: engine.enabled must "
                "be true"
            )
        self.config = config
        self.transport = LocalTransport(self.config)
        self.registry = self.transport.metrics
        self.bridge = WallClockBridge(
            self.transport.engine, window=self.config.net.window
        )
        self._next_token = 0
        #: bridge token -> (connection, request) awaiting completion reply.
        self._inflight: Dict[int, Tuple[_Connection, Request]] = {}
        self._selector = DefaultSelector()
        #: The write end of the socket pair that wakes ``select`` for stop.
        self._wake: Optional[socket.socket] = None
        self.addr: Optional[Tuple[str, int]] = None
        self._frame_errors = self.registry.counter("net.server.frame_errors")

    # -- lifecycle ---------------------------------------------------------

    def start(self, port: Optional[int] = None) -> Tuple[str, int]:
        """Bind and listen; returns (host, port): ``port=0`` is ephemeral."""
        host = self.config.net.host
        port = self.config.net.port if port is None else port
        listener = socket.create_server(
            (host, port), backlog=100,
            family=socket.AF_INET6 if ":" in host else socket.AF_INET,
        )
        listener.setblocking(False)
        self._selector.register(listener, EVENT_READ)
        woken, self._wake = socket.socketpair()
        self._selector.register(woken, EVENT_READ, self._wake)
        self.addr = listener.getsockname()[:2]
        return self.addr

    def serve_forever(self) -> None:
        """Serve on this thread until :meth:`stop` or an exception (a
        ``KeyboardInterrupt``); then close the listener, the connections
        and the deployment (its registry stays readable)."""
        try:
            while True:
                for key, events in self._selector.select():
                    conn = key.data
                    if conn is None:
                        self._accept(key.fileobj)
                    elif conn is self._wake:
                        return
                    else:
                        self._serve_ready(conn, events)
        finally:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()
            self._wake.close()
            self.transport.close()

    def stop(self) -> None:
        """End :meth:`serve_forever`; safe to call from any thread."""
        with contextlib.suppress(OSError):  # closed: the loop is over
            self._wake.send(b"\0")

    # -- connection handling -----------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, _ = listener.accept()
        except OSError:
            return  # the peer gave up before we got to it
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self._selector.register(sock, EVENT_READ, _Connection(sock))

    def _serve_ready(self, conn: _Connection, events: int) -> None:
        """An unexpected error closes this connection only."""
        try:
            if events & EVENT_WRITE:
                self._flush(conn)
            if events & EVENT_READ and conn.sock is not None:
                self._receive(conn)
        except Exception:  # noqa: BLE001 - one connection's failure
            logging.getLogger(__name__).exception(
                "closing a connection after an unexpected error"
            )
            self._close(conn)

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
            payloads = conn.decoder.feed(data) if data else None
        except BlockingIOError:
            return
        except FrameError:
            # A stream that lost framing cannot resync; drop it.
            self._frame_errors.inc()
            payloads = None
        except OSError:
            payloads = None  # reset by the peer
        if payloads is None:
            self._close(conn)
            return
        for payload in payloads:
            try:
                message = decode_message(payload)
            except ProtocolError as exc:
                self._frame_errors.inc()
                self._reply_malformed(conn, payload, exc)
                continue
            if not isinstance(message, Request):
                continue  # a response frame to a server is noise
            if message.spec.control:
                self._serve_session(message, conn)
            elif message.seq != conn.next_seq:
                self._write(conn, Response(
                    id=message.id, status=STATUS_ERROR,
                    error=f"sequence violation: seq {message.seq} "
                          f"vs expected {conn.next_seq}",
                ))
            else:
                conn.next_seq += 1
                self._process(message, conn)

    def _close(self, conn: _Connection) -> None:
        if conn.sock is None:
            return
        self._selector.unregister(conn.sock)
        conn.sock.close()
        conn.sock = None

    def _reply_malformed(
        self, conn: _Connection, payload: Any, exc: Exception
    ) -> None:
        """Structurally valid frame, semantically broken request: reply
        per-request if an id is recoverable, else ignore."""
        req_id = payload.get("id") if isinstance(payload, dict) else None
        if isinstance(req_id, int):
            self._write(conn, _error_reply(req_id, exc))

    # -- session ops -------------------------------------------------------

    def _serve_session(self, req: Request, conn: _Connection) -> None:
        """Ops the server answers itself (the rows whose target is
        ``"session"``); each handler is named after its row."""
        self._write(conn, getattr(self, "_session_" + req.op)(req))

    def _session_hello(self, req: Request) -> Response:
        session_id, client_version = req.args
        if client_version != VERSION:
            return Response(
                id=req.id,
                status=STATUS_ERROR,
                error=(
                    f"protocol version mismatch: client {client_version}"
                    f", server {VERSION}"
                ),
            )
        return Response(
            id=req.id,
            kind=req.spec.kind,
            value={
                "session": session_id,
                "version": VERSION,
                "sharded": self.transport.sharded,
                "engine": True,
                "window": self.bridge.window,
            },
            done_us=self.transport.now_us,
        )

    def _session_ping(self, req: Request) -> Response:
        now = self.transport.now_us
        return Response(
            id=req.id, kind=req.spec.kind, value=now,
            done_us=now, arrival_us=req.arrival_us,
        )

    #: The sequenced ping: `_process` has run the engine to idle first.
    _session_flush = _session_ping

    def _session_stats(self, req: Request) -> Response:
        now = self.transport.now_us
        sessions = len(self._selector.get_map()) - 2  # less listener, waker
        value = {"now_us": now, "sessions": sessions}
        for name in (
            "admitted", "rejected", "completed", "queue_depth", "window"
        ):
            value[name] = getattr(self.bridge, name)
        return Response(
            id=req.id, kind=req.spec.kind, value=value, done_us=now
        )

    # -- data ops ----------------------------------------------------------

    def _process(self, req: Request, conn: _Connection) -> None:
        if req.spec.target == "session":
            # A session op in the sequenced stream is a barrier: every
            # pipelined op before it completes and replies first.
            self._send_completions(self.bridge.flush())
            self._serve_session(req, conn)
            return
        # Time never flows backward: a connection whose stamps lag another
        # connection's progress is clamped to engine-now (one client at a
        # time, the deterministic case, is never clamped).
        arrival = max(req.arrival_us, self.transport.now_us)
        if req.sync or not req.spec.proc:
            self._process_sync(req, conn, arrival)
            return
        token = self._next_token
        self._next_token += 1
        transport = self.transport
        decision = self.bridge.submit(
            token, arrival, lambda: transport.proc(req.op, *req.args)
        )
        self._send_completions(decision.completions)
        if not decision.admitted:
            self._write(conn, Response(
                id=req.id,
                status=STATUS_REJECTED,
                queue_depth=decision.queue_depth,
                arrival_us=arrival,
                done_us=arrival,
            ))
        else:
            self._inflight[token] = (conn, req)

    def _process_sync(
        self, req: Request, conn: _Connection, arrival: float
    ) -> None:
        """Closed-loop path: run the op to completion at its arrival and
        reply immediately — exactly what a LocalTransport call does."""
        self._send_completions(self.bridge.drain_to(arrival))
        self.transport.advance_to(arrival)
        try:
            result = self.transport.call(req.op, *req.args)
        except Exception as exc:  # noqa: BLE001 - delivered per-request
            self._write(conn, _error_reply(
                req.id, exc,
                done_us=self.transport.now_us, arrival_us=arrival,
            ))
            return
        done_us = RESULT_KINDS[req.spec.kind].done_us
        self._write(conn, _result_reply(
            req, result,
            done_us=(
                self.transport.now_us if done_us is None else done_us(result)
            ),
            arrival_us=arrival,
        ))

    def _send_completions(self, completions: List[BridgeCompletion]) -> None:
        for completion in completions:
            entry = self._inflight.pop(completion.token, None)
            if entry is None:
                continue
            conn, req = entry
            stamps = dict(
                done_us=completion.done_us,
                arrival_us=completion.arrival_us,
                queue_depth=completion.depth_at_admit,
            )
            if completion.ok:
                reply = _result_reply(req, completion.result, **stamps)
            else:
                reply = _error_reply(req.id, completion.error, **stamps)
            self._write(conn, reply)

    def _write(self, conn: _Connection, response: Response) -> None:
        """Frame one reply and send it; a closed connection drops it."""
        if conn.sock is not None:
            conn.out += response.encode()
            self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        """Send what the socket takes now and the rest when ``select``
        says; past ``HIGH_WATER`` unsent bytes stop reading the peer."""
        try:
            del conn.out[:conn.sock.send(conn.out)]
        except BlockingIOError:
            pass
        except OSError:
            self._close(conn)
            return
        events = ((EVENT_READ if len(conn.out) <= HIGH_WATER else 0)
                  | (EVENT_WRITE if conn.out else 0))
        if events != conn.events:
            self._selector.modify(conn.sock, events, conn)
            conn.events = events


def _result_reply(req: Request, result: Any, **stamps) -> Response:
    """One result object -> its OK reply, through the row's result kind."""
    return Response(
        id=req.id,
        kind=req.spec.kind,
        value=RESULT_KINDS[req.spec.kind].to_wire(result),
        io_reads=getattr(result, "io_reads", 0),
        redo_bytes=getattr(result, "redo_bytes", 0),
        **stamps,
    )


def _error_reply(req_id: int, exc: BaseException, **stamps) -> Response:
    return Response(
        id=req_id, status=STATUS_ERROR,
        error=f"{type(exc).__name__}: {exc}", **stamps,
    )


class ServerThread:
    """A server's loop running in a daemon thread."""

    def __init__(self, server: PolarStoreServer) -> None:
        self.server = server
        self.addr: Optional[Tuple[str, int]] = None
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-net-serve", daemon=True
        )

    def start(self, port: Optional[int] = None) -> Tuple[str, int]:
        self.addr = self.server.start(port)
        self._thread.start()
        return self.addr

    def stop(self) -> None:
        """End the loop (it closes every socket) and wait for it."""
        self.server.stop()
        self._thread.join(timeout=10.0)


def serve_in_thread(
    config: Optional[ReproConfig] = None, *, port: int = 0
) -> ServerThread:
    """Start a server on a background thread; returns the running
    :class:`ServerThread` with ``.addr`` bound (ephemeral by default)."""
    handle = ServerThread(PolarStoreServer(config))
    handle.start(port)
    return handle


__all__ = [
    "PolarStoreServer",
    "ServerThread",
    "serve_in_thread",
]
