"""The PolarStore socket server: one engine-bound deployment, framed.

:class:`PolarStoreServer` hosts an engine-bound
:class:`~repro.api.transport.LocalTransport` (a real store or sharded
cluster) behind the :mod:`repro.net.protocol` wire format on an asyncio
TCP front-end.  The design problem is determinism: sockets deliver
requests in wall-clock order, but the reproduction's value is that
simulated outcomes are a pure function of the seeded workload.  Three
mechanisms restore that property:

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

Everything runs on one asyncio loop, so request processing is
serialized without locks.  :func:`serve_in_thread` wraps the server in
a background thread for tests and in-process tooling.
"""

from __future__ import annotations

import asyncio
import threading
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
            self.transport.engine,
            window=self.config.net.window,
            registry=self.registry,
        )
        self._connections = 0
        self._next_token = 0
        #: bridge token -> (writer, request) awaiting completion reply.
        self._inflight: Dict[int, Tuple[asyncio.StreamWriter, Request]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self.addr: Optional[Tuple[str, int]] = None
        self._requests = self.registry.counter("net.server.requests")
        self._replies = self.registry.counter("net.server.replies")
        self._frame_errors = self.registry.counter("net.server.frame_errors")

    # -- lifecycle ---------------------------------------------------------

    async def start(self, port: Optional[int] = None) -> Tuple[str, int]:
        """Bind ``config.net.host`` and listen; returns the actual
        (host, port) — pass ``port=0`` for an ephemeral port."""
        port = port if port is not None else self.config.net.port
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.net.host, port
        )
        sock = self._server.sockets[0]
        self.addr = sock.getsockname()[:2]
        return self.addr

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder(MAX_FRAME_BYTES)
        next_seq = 0  # the data op this connection may send next
        self._connections += 1
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                try:
                    payloads = decoder.feed(data)
                except FrameError:
                    # A stream that lost framing cannot resync; drop it.
                    self._frame_errors.inc()
                    break
                for payload in payloads:
                    try:
                        message = decode_message(payload)
                    except ProtocolError as exc:
                        self._frame_errors.inc()
                        await self._reply_malformed(writer, payload, exc)
                        continue
                    if not isinstance(message, Request):
                        continue  # a response frame to a server is noise
                    self._requests.inc()
                    if message.spec.control:
                        await self._serve_session(message, writer)
                    elif message.seq != next_seq:
                        await self._write(writer, Response(
                            id=message.id, status=STATUS_ERROR,
                            error=(
                                f"sequence violation: seq {message.seq} "
                                f"vs expected {next_seq}"
                            ),
                        ))
                    else:
                        next_seq += 1
                        await self._process(message, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _reply_malformed(
        self, writer: asyncio.StreamWriter, payload: Any, exc: Exception
    ) -> None:
        """Structurally valid frame, semantically broken request: reply
        per-request if an id is recoverable, else ignore."""
        req_id = payload.get("id") if isinstance(payload, dict) else None
        if isinstance(req_id, int):
            await self._write(writer, _error_reply(req_id, exc))

    # -- session ops -------------------------------------------------------

    async def _serve_session(
        self, req: Request, writer: asyncio.StreamWriter
    ) -> None:
        """Ops the server answers itself (the rows whose target is
        ``"session"``); each handler is named after its row."""
        await self._write(writer, getattr(self, "_session_" + req.op)(req))

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
        value = {"now_us": now, "sessions": self._connections}
        for name in (
            "admitted", "rejected", "completed", "queue_depth", "window"
        ):
            value[name] = getattr(self.bridge, name)
        return Response(
            id=req.id, kind=req.spec.kind, value=value, done_us=now
        )

    # -- data ops ----------------------------------------------------------

    async def _process(
        self, req: Request, writer: asyncio.StreamWriter
    ) -> None:
        if req.spec.target == "session":
            # A session op in the sequenced stream is a barrier: every
            # pipelined op before it completes and replies first.
            await self._send_completions(self.bridge.flush())
            await self._serve_session(req, writer)
            return
        # Time never flows backward: a connection whose stamps lag another
        # connection's progress is clamped to engine-now (one client at a
        # time, the deterministic case, is never clamped).
        arrival = max(req.arrival_us, self.transport.now_us)
        if req.sync or not req.spec.proc:
            await self._process_sync(req, writer, arrival)
            return
        token = self._next_token
        self._next_token += 1
        transport = self.transport
        decision = self.bridge.submit(
            token, arrival, lambda: transport.proc(req.op, *req.args)
        )
        await self._send_completions(decision.completions)
        if not decision.admitted:
            await self._write(writer, Response(
                id=req.id,
                status=STATUS_REJECTED,
                queue_depth=decision.queue_depth,
                arrival_us=arrival,
                done_us=arrival,
            ))
        else:
            self._inflight[token] = (writer, req)

    async def _process_sync(
        self, req: Request, writer: asyncio.StreamWriter, arrival: float
    ) -> None:
        """Closed-loop path: run the op to completion at its arrival and
        reply immediately — exactly what a LocalTransport call does."""
        await self._send_completions(self.bridge.drain_to(arrival))
        self.transport.advance_to(arrival)
        try:
            result = self.transport.call(req.op, *req.args)
        except Exception as exc:  # noqa: BLE001 - delivered per-request
            await self._write(writer, _error_reply(
                req.id, exc,
                done_us=self.transport.now_us, arrival_us=arrival,
            ))
            return
        done_us = RESULT_KINDS[req.spec.kind].done_us
        await self._write(writer, _result_reply(
            req, result,
            done_us=(
                self.transport.now_us if done_us is None else done_us(result)
            ),
            arrival_us=arrival,
        ))

    async def _send_completions(
        self, completions: List[BridgeCompletion]
    ) -> None:
        for completion in completions:
            entry = self._inflight.pop(completion.token, None)
            if entry is None:
                continue
            writer, req = entry
            stamps = dict(
                done_us=completion.done_us,
                arrival_us=completion.arrival_us,
                queue_depth=completion.depth_at_admit,
            )
            if completion.ok:
                reply = _result_reply(req, completion.result, **stamps)
            else:
                reply = _error_reply(req.id, completion.error, **stamps)
            await self._write(writer, reply)

    async def _write(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        """Frame and send one reply; a dead peer just drops it (its
        client-side futures fail on disconnect)."""
        if writer.is_closing():
            return
        try:
            writer.write(response.encode())
            await writer.drain()
            self._replies.inc()
        except (ConnectionError, OSError):
            pass


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
    """A server running on its own asyncio loop in a daemon thread."""

    def __init__(self, server: PolarStoreServer) -> None:
        self.server = server
        self.addr: Optional[Tuple[str, int]] = None
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-net-serve", daemon=True
        )

    def start(self, port: Optional[int] = None) -> Tuple[str, int]:
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.server.start(port), self._loop
        )
        self.addr = future.result(timeout=10.0)
        return self.addr

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()


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
