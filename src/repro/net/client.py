"""The pooled socket client: PolarStore over the wire.

:class:`SocketPool` owns N TCP connections on a private asyncio loop in
a daemon thread and exposes a thread-safe, future-based request API:

* **sequencing** — every data op gets its per-session ``seq`` and its
  simulated ``arrival_us`` stamped *at dispatch*, on the loop, in
  dispatch order.  Stamping at dispatch (not at enqueue) means a
  request that times out while queued never occupies a sequence slot,
  so the server's reorder buffer can never stall on a gap;
* **admission control** — a bounded in-flight window
  (``max_inflight``) plus a bounded dispatch queue (``queue_cap``);
  a full queue rejects immediately with
  :class:`~repro.api.transport.AdmissionError` (backpressure the
  caller can see) instead of buffering without bound;
* **timeouts** — each blocking wait carries a wall-clock deadline
  (:class:`~repro.api.transport.TransportTimeout`); the request's
  reply is discarded if it arrives late;
* **failure containment** — a mid-stream disconnect fails every
  request in flight on that connection immediately; nothing hangs
  waiting on a reply that can no longer arrive.

:class:`SocketTransport` wraps a pool in the
:class:`~repro.api.transport.Transport` interface, so
``PolarStore.connect(addr)`` hands back the same
:class:`~repro.api.client.PolarStoreClient` as ``PolarStore.open``:
identical ops, identical result objects, identical simulated timings
(golden-tested against ``LocalTransport``).  The client keeps the
simulated-time cursor, advanced from each reply's ``done_us``.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api.transport import (
    AdmissionError,
    Transport,
    TransportError,
    TransportTimeout,
)
from repro.common.ops import OPS_BY_NAME, RESULT_KINDS, OpSpec, data_op
from repro.net.protocol import (
    FLAG_SYNC,
    MAX_FRAME_BYTES,
    VERSION,
    FrameDecoder,
    ProtocolError,
    Request,
    Response,
    decode_message,
)

#: Process-wide session id allocator: pid-salted so two client processes
#: hitting one server never share a sequencer (ids are routing keys
#: only; simulated outcomes never depend on their values).
_session_ids = itertools.count(1)


def _next_session_id() -> int:
    return (os.getpid() << 20) | next(_session_ids)


def parse_addr(addr: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` or ``(host, port)`` -> ``(host, port)``."""
    if isinstance(addr, str):
        host, sep, port = addr.rpartition(":")
        if not sep or not host:
            raise TransportError(
                f"address must be 'host:port', got {addr!r}"
            )
        return (host, int(port))
    host, port = addr
    return (str(host), int(port))


class _Connection:
    """One TCP connection: writer, reader task, and its in-flight ids."""

    __slots__ = ("index", "reader", "writer", "decoder", "task", "alive")

    def __init__(self, index: int) -> None:
        self.index = index
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.decoder = FrameDecoder(MAX_FRAME_BYTES)
        self.task: Optional[asyncio.Task] = None
        self.alive = False


class SocketPool:
    """N connections to one server, a session sequencer, and a bounded
    dispatch pipeline (window + queue) — the client-side half of the
    serving layer's admission control."""

    def __init__(
        self,
        addr: Union[str, Tuple[str, int]],
        *,
        connections: int = 2,
        max_inflight: int = 256,
        queue_cap: int = 4096,
        timeout_s: float = 30.0,
    ) -> None:
        if connections < 1:
            raise ValueError("pool needs at least one connection")
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self.addr = parse_addr(addr)
        self.max_inflight = max_inflight
        self.queue_cap = queue_cap
        self.timeout_s = timeout_s
        self.session = _next_session_id()
        self.hello: Dict[str, Any] = {}
        self.rejected = 0  # client-side queue-full rejections
        self._closed = False
        self._next_id = itertools.count(1)
        self._next_seq = 0
        self._last_arrival = 0.0
        self._rr = 0
        #: request id -> (Future[Response], connection index)
        self._pending: Dict[int, Tuple[Future, int]] = {}
        #: (request-kwargs, future) waiting for a window slot.
        self._queue: List[Tuple[dict, Future]] = []
        self._conns = [_Connection(i) for i in range(connections)]
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-net-pool", daemon=True
        )
        self._thread.start()
        try:
            self._run(self._connect_all(), timeout=timeout_s)
        except (TimeoutError, FuturesTimeoutError):
            self.close()
            host, port = self.addr
            raise TransportTimeout(
                f"no handshake reply from {host}:{port} "
                f"within {timeout_s:g}s"
            ) from None
        except BaseException:
            self.close()
            raise

    # -- loop plumbing -----------------------------------------------------

    def _run(self, coro, timeout: Optional[float] = None):
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop
        ).result(timeout)

    async def _connect_all(self) -> None:
        host, port = self.addr
        for conn in self._conns:
            try:
                conn.reader, conn.writer = await asyncio.open_connection(
                    host, port
                )
            except OSError as exc:
                raise TransportError(
                    f"cannot connect to {host}:{port}: {exc}"
                ) from exc
            conn.alive = True
            conn.task = asyncio.ensure_future(self._read_loop(conn))
        # Handshake on connection 0: version check + deployment shape.
        future: Future = Future()
        request = Request(
            id=next(self._next_id), op="hello",
            args=[self.session, VERSION],
        )
        self._pending[request.id] = (future, 0)
        await self._send(self._conns[0], request, future)
        response = await asyncio.wrap_future(future)
        if not response.ok:
            raise TransportError(f"handshake failed: {response.error}")
        self.hello = dict(response.value)

    async def _read_loop(self, conn: _Connection) -> None:
        reader = conn.reader
        reason = "connection lost mid-stream"
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                for payload in conn.decoder.feed(data):
                    message = decode_message(payload)
                    if isinstance(message, Response):
                        self._resolve(message)
        except (ConnectionError, OSError):
            pass
        except ProtocolError as exc:
            # A stream that stopped making sense cannot be trusted to
            # answer what is in flight on it.
            reason = f"undecodable reply ({type(exc).__name__}: {exc})"
        finally:
            self._fail_connection(conn, reason)

    def _resolve(self, response: Response) -> None:
        future, _ = self._pending.pop(response.id, (None, 0))
        # A caller that timed out has cancelled its future and left.
        if future is not None and future.set_running_or_notify_cancel():
            future.set_result(response)
        self._pump()

    def _fail_connection(self, conn: _Connection, reason: str) -> None:
        conn.alive = False
        if conn.writer is not None and not conn.writer.is_closing():
            conn.writer.close()
        stranded = [
            rid for rid, (_, index) in self._pending.items()
            if index == conn.index
        ]
        for rid in stranded:
            future, _ = self._pending.pop(rid)
            if future.set_running_or_notify_cancel():
                future.set_exception(TransportError(
                    f"{reason} (request id {rid}, "
                    f"connection {conn.index} to "
                    f"{self.addr[0]}:{self.addr[1]})"
                ))
        self._pump()

    # -- dispatch ----------------------------------------------------------

    def request(
        self,
        op: str,
        args: List[Any],
        *,
        sync: bool = False,
        arrival_us: float = 0.0,
    ) -> Future:
        """Thread-safe: enqueue one op; returns a Future[Response].

        Raises :class:`AdmissionError` immediately when the in-flight
        window and the dispatch queue are both full, and
        :class:`TransportError` when the pool is closed or every
        connection has died.
        """
        if self._closed:
            raise TransportError("socket pool is closed")
        row = OPS_BY_NAME.get(op)
        if row is None:
            raise ProtocolError(f"unknown op {op!r}")
        future: Future = Future()
        spec = dict(
            op=op, args=args, sync=sync, arrival_us=arrival_us,
            control=row.control,
        )
        try:
            self._loop.call_soon_threadsafe(self._enqueue, spec, future)
        except RuntimeError as exc:
            raise TransportError("socket pool loop is gone") from exc
        return future

    def _enqueue(self, spec: dict, future: Future) -> None:
        if spec["control"] or len(self._pending) < self.max_inflight:
            self._dispatch(spec, future)
            return
        if len(self._queue) >= self.queue_cap:
            self.rejected += 1
            if future.set_running_or_notify_cancel():
                future.set_exception(AdmissionError(
                    f"client dispatch queue full "
                    f"({self.queue_cap} waiting behind a "
                    f"{self.max_inflight}-request window)"
                ))
            return
        self._queue.append((spec, future))

    def _pump(self) -> None:
        """Window slots freed (reply or failure): dispatch queued work."""
        while self._queue and len(self._pending) < self.max_inflight:
            spec, future = self._queue.pop(0)
            if future.cancelled():
                continue
            self._dispatch(spec, future)

    def _dispatch(self, spec: dict, future: Future) -> None:
        """Stamp id/seq/arrival in dispatch order and write the frame."""
        conn = self._pick_connection()
        if conn is None:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    TransportError("all pool connections are down")
                )
            return
        request_id = next(self._next_id)
        if spec["control"]:
            request = Request(
                id=request_id, op=spec["op"], args=spec["args"],
            )
        else:
            self._last_arrival = max(
                self._last_arrival, float(spec["arrival_us"])
            )
            request = Request(
                id=request_id,
                op=spec["op"],
                args=spec["args"],
                seq=self._next_seq,
                session=self.session,
                arrival_us=self._last_arrival,
                flags=FLAG_SYNC if spec["sync"] else 0,
            )
            self._next_seq += 1
        self._pending[request_id] = (future, conn.index)
        self._loop.create_task(self._send(conn, request, future))

    def _pick_connection(self) -> Optional[_Connection]:
        for offset in range(len(self._conns)):
            conn = self._conns[(self._rr + offset) % len(self._conns)]
            if conn.alive:
                self._rr = (conn.index + 1) % len(self._conns)
                return conn
        return None

    async def _send(
        self, conn: _Connection, request: Request, future: Future
    ) -> None:
        try:
            conn.writer.write(request.encode())
            await conn.writer.drain()
        except (ConnectionError, OSError):
            self._fail_connection(conn, "connection lost while sending")

    # -- blocking conveniences ---------------------------------------------

    def call(
        self,
        op: str,
        args: List[Any],
        *,
        sync: bool = True,
        arrival_us: float = 0.0,
        timeout_s: Optional[float] = None,
    ) -> Response:
        """Send one request and block for its reply."""
        future = self.request(op, args, sync=sync, arrival_us=arrival_us)
        return self.wait(future, timeout_s=timeout_s)

    def wait(
        self, future: Future, *, timeout_s: Optional[float] = None
    ) -> Response:
        timeout = self.timeout_s if timeout_s is None else timeout_s
        try:
            return future.result(timeout)
        except (TimeoutError, FuturesTimeoutError):
            future.cancel()
            raise TransportTimeout(
                f"no reply from {self.addr[0]}:{self.addr[1]} "
                f"within {timeout:g}s"
            ) from None

    def flush(self, *, timeout_s: Optional[float] = None) -> Response:
        """Sequenced run-to-idle: every pipelined op submitted before
        this point has its reply on the wire once flush returns."""
        return self.call(
            "flush", [], sync=False,
            arrival_us=self._last_arrival, timeout_s=timeout_s,
        )

    @property
    def inflight(self) -> int:
        return len(self._pending)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._loop.is_running():
            try:
                self._run(self._shutdown(), timeout=5.0)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._loop.is_running():
            self._loop.close()

    async def _shutdown(self) -> None:
        for conn in self._conns:
            if conn.task is not None:
                conn.task.cancel()
            if conn.writer is not None and not conn.writer.is_closing():
                conn.writer.close()
        for rid in list(self._pending):
            future, _ = self._pending.pop(rid)
            if future.set_running_or_notify_cancel():
                future.set_exception(TransportError("pool closed"))


class SocketTransport(Transport):
    """The :class:`Transport` over a :class:`SocketPool`.

    ``call`` is closed-loop (``FLAG_SYNC``: the server runs the engine
    until the op completes, so results match ``LocalTransport`` to the
    byte); ``submit``/``flush`` are the open-loop path the load
    generator drives.  The simulated-time cursor lives client-side and
    advances from reply ``done_us`` stamps.
    """

    kind = "socket"

    def __init__(
        self, addr: Union[str, Tuple[str, int]], **pool_options
    ) -> None:
        """``pool_options`` are :class:`SocketPool`'s keywords."""
        self.pool = SocketPool(addr, **pool_options)
        self._now_us = 0.0

    # -- simulated time ----------------------------------------------------

    @property
    def now_us(self) -> float:
        return self._now_us

    def advance_to(self, now_us: float) -> float:
        self._now_us = max(self._now_us, now_us)
        return self._now_us

    # -- introspection -----------------------------------------------------

    @property
    def sharded(self) -> bool:
        return bool(self.pool.hello.get("sharded", False))

    def describe(self) -> Dict[str, object]:
        doc = super().describe()
        doc["addr"] = f"{self.pool.addr[0]}:{self.pool.addr[1]}"
        doc.update(self.pool.hello)
        return doc

    # -- ops ---------------------------------------------------------------

    def call(self, op: str, /, *args, **kwargs):
        spec = data_op(op)
        response = self.pool.call(
            op, self._wire_args(spec, args, kwargs),
            sync=True, arrival_us=self._now_us,
        )
        return self._decode(spec, response)

    def submit(self, op: str, /, *args, arrival_us: float = 0.0, **kwargs):
        """Open-loop pipelined submit; returns a Future[Response].

        The reply materializes when a later arrival (or :meth:`flush`)
        drains the engine past the op's completion, or immediately with
        ``STATUS_REJECTED`` if the server's admission window is full.
        """
        return self.pool.request(
            op, self._wire_args(data_op(op), args, kwargs), sync=False,
            arrival_us=max(arrival_us, self._now_us),
        )

    def flush(self) -> float:
        """Force every outstanding pipelined reply; returns server
        simulated time after the drain."""
        response = self.pool.flush()
        self._now_us = max(self._now_us, response.done_us)
        return float(response.value)

    def stats(self) -> Dict[str, Any]:
        return dict(self.pool.call("stats", []).value)

    def ping(self) -> float:
        return float(self.pool.call("ping", []).value)

    def _wire_args(self, spec: OpSpec, args: tuple, kwargs: dict) -> list:
        bound = spec.bind(args, kwargs)
        if kwargs:
            raise self._no_capability(
                f"op {spec.name!r} options {sorted(kwargs)} (in-process "
                f"tuning knobs are not part of the wire protocol)"
            )
        return bound

    def _decode(self, spec: OpSpec, response: Response):
        if response.rejected:
            raise AdmissionError(
                f"server admission window full for {spec.name!r} "
                f"(in-flight depth {response.queue_depth})"
            )
        if not response.ok:
            raise TransportError(
                f"remote {spec.name!r} failed: {response.error}"
            )
        if response.kind != spec.kind:
            raise TransportError(
                f"remote {spec.name!r} replied with result kind "
                f"{response.kind!r}"
            )
        self._now_us = max(self._now_us, response.done_us)
        return RESULT_KINDS[spec.kind].from_wire(response)

    def close(self) -> None:
        self.pool.close()


__all__ = [
    "SocketPool",
    "SocketTransport",
    "parse_addr",
]
