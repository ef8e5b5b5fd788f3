"""The pooled socket client: PolarStore over the wire.

:class:`SocketPool` owns N non-blocking TCP connections and no thread
or event loop: ``request`` writes the frame at once, and ``wait`` runs
the ``selectors`` pump (pending writes, reads, decoding, resolving) on
the caller's thread until its future resolves, so a closed-loop call is
one send and one receive.  The pool promises:

* **sequencing** — every data op gets its per-session ``seq`` and its
  simulated ``arrival_us`` stamped *at dispatch*, under the lock, in
  dispatch order.  A request that times out while queued therefore
  never occupies a sequence slot, so the server's reorder buffer can
  never stall on a gap;
* **admission control** — a bounded in-flight window
  (``max_inflight``) plus a bounded dispatch queue (``queue_cap``);
  a full queue rejects immediately with
  :class:`~repro.api.transport.AdmissionError` (backpressure the
  caller can see) instead of buffering without bound;
* **timeouts** — each blocking wait carries a wall-clock deadline
  (:class:`~repro.api.transport.TransportTimeout`); a late reply is
  discarded;
* **failure containment** — a mid-stream disconnect fails every
  request in flight on that connection at once;
* **no deadlock on backpressure** — the server stops reading while its
  own replies back up, so the pump keeps reading while it cannot write.

:class:`SocketTransport` wraps a pool in the
:class:`~repro.api.transport.Transport` interface, so
``PolarStore.connect(addr)`` hands back the same
:class:`~repro.api.client.PolarStoreClient` as ``PolarStore.open``:
identical ops, identical result objects, identical simulated timings
(golden-tested against ``LocalTransport``).  The client keeps the
simulated-time cursor, advanced from each reply's ``done_us``.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

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

#: Bytes one ``recv`` may return.
_RECV_BYTES = 256 * 1024

#: How long a waiter sleeps on its future while another thread pumps.
_HANDOFF_S = 0.001

#: Longest single ``select``: bounds how late the pump notices that
#: another thread settled its future (a failed send, ``close``).
_SLICE_S = 0.05


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


def _fail(future: Future, exc: BaseException) -> None:
    """Fail ``future`` unless its waiter already gave up on it."""
    if future.set_running_or_notify_cancel():
        future.set_exception(exc)


class _Connection:
    """One TCP connection: its socket, unsent bytes and reply decoder."""

    __slots__ = ("index", "sock", "out", "decoder", "alive")

    def __init__(self, index: int, sock: socket.socket) -> None:
        self.index = index
        self.sock = sock
        self.out = bytearray()  # frame bytes the socket has not taken yet
        self.decoder = FrameDecoder(MAX_FRAME_BYTES)
        self.alive = True


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
        self._closed = False
        self._next_id = itertools.count(1)
        self._next_seq = 0
        self._last_arrival = 0.0
        self._rr = 0
        #: request id -> (Future[Response], connection index)
        self._pending: Dict[int, Tuple[Future, int]] = {}
        #: ((op, args, sync, arrival_us, control), future) awaiting a slot.
        self._queue: Deque[Tuple[tuple, Future]] = deque()
        self._lock = threading.Lock()  # pool state and socket I/O
        self._pumping = threading.Lock()  # held by the one thread in select
        self._selector = DefaultSelector()
        self._conns: List[_Connection] = []
        try:
            self._connect_all(connections)
        except BaseException:
            self.close()
            raise

    def _connect_all(self, connections: int) -> None:
        host, port = self.addr
        for index in range(connections):
            try:
                sock = socket.create_connection(self.addr, self.timeout_s)
            except OSError as exc:
                raise TransportError(
                    f"cannot connect to {host}:{port}: {exc}"
                ) from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Connection(index, sock)
            self._conns.append(conn)
            self._selector.register(sock, EVENT_READ, conn)
        # Handshake (on connection 0): version check + deployment shape.
        response = self.wait(self.request("hello", [self.session, VERSION]))
        if not response.ok:
            raise TransportError(f"handshake failed: {response.error}")
        self.hello = dict(response.value)

    # -- dispatch ----------------------------------------------------------

    def request(
        self,
        op: str,
        args: List[Any],
        *,
        sync: bool = False,
        arrival_us: float = 0.0,
    ) -> Future:
        """Thread-safe: dispatch one op (or queue it behind a full
        window); returns a Future[Response].  Raises
        :class:`AdmissionError` when the window and the queue are both
        full, and :class:`TransportError` when the pool is closed.
        """
        row = OPS_BY_NAME.get(op)
        if row is None:
            raise ProtocolError(f"unknown op {op!r}")
        future: Future = Future()
        spec = (op, args, sync, arrival_us, row.control)
        with self._lock:
            if self._closed:
                raise TransportError("socket pool is closed")
            if (not row.control and len(self._pending) >= self.max_inflight
                    and len(self._queue) >= self.queue_cap):
                # Replies that already arrived may free window slots.
                self._serve(self._selector.select(0))
            # The queue is empty whenever the window has room, so this
            # keeps dispatch order equal to call order.
            if row.control or len(self._pending) < self.max_inflight:
                self._dispatch(spec, future)
            elif len(self._queue) >= self.queue_cap:
                raise AdmissionError(
                    f"client dispatch queue full "
                    f"({self.queue_cap} waiting behind a "
                    f"{self.max_inflight}-request window)"
                )
            else:
                self._queue.append((spec, future))
        return future

    def _dispatch(self, spec: tuple, future: Future) -> None:
        """Stamp id/seq/arrival in dispatch order and write the frame."""
        alive = [conn for conn in self._conns if conn.alive]
        if not alive:
            _fail(future, TransportError("all pool connections are down"))
            return
        conn = alive[self._rr % len(alive)]  # round robin
        self._rr += 1
        op, args, sync, arrival_us, control = spec
        request_id = next(self._next_id)
        if control:
            request = Request(id=request_id, op=op, args=args)
        else:
            request = Request(
                id=request_id, op=op, args=args, seq=self._next_seq,
                session=self.session, flags=FLAG_SYNC if sync else 0,
                arrival_us=max(self._last_arrival, float(arrival_us)),
            )
        try:
            frame = request.encode()
        except ProtocolError as exc:
            # Nothing was stamped: the sequence has no gap.
            _fail(future, exc)
            return
        if not control:
            self._last_arrival = request.arrival_us
            self._next_seq += 1
        self._pending[request_id] = (future, conn.index)
        conn.out += frame
        self._flush(conn)

    def _admit_queued(self) -> None:
        """Window slots freed (reply or failure): dispatch queued work."""
        while self._queue and len(self._pending) < self.max_inflight:
            spec, future = self._queue.popleft()
            if not future.cancelled():
                self._dispatch(spec, future)

    # -- the pump ----------------------------------------------------------

    def _pump(self, future: Future, deadline: float) -> None:
        """Do I/O until ``future`` resolves or ``deadline`` (monotonic)
        passes.  Only the holder of ``_pumping`` runs this; it blocks in
        ``select`` without the state lock, so other threads' requests go
        out meanwhile, and does the I/O under it."""
        while not future.done():
            timeout = deadline - time.monotonic()
            if timeout <= 0.0:
                return
            ready = self._selector.select(min(timeout, _SLICE_S))
            with self._lock:
                self._serve(ready)

    def _serve(self, ready) -> None:
        """Act on ``select``'s events (the caller holds the lock)."""
        for key, events in ready:
            conn = key.data
            if events & EVENT_WRITE and conn.alive:
                self._flush(conn)
            if events & EVENT_READ and conn.alive:
                self._receive(conn)

    def _flush(self, conn: _Connection) -> None:
        """Write what the socket takes now; the pump writes the rest."""
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._fail_connection(conn, "connection lost while sending")
            return
        del conn.out[:sent]
        events = EVENT_READ | (EVENT_WRITE if conn.out else 0)
        if self._selector.get_key(conn.sock).events != events:
            self._selector.modify(conn.sock, events, conn)

    def _receive(self, conn: _Connection) -> None:
        reason = "connection lost mid-stream"
        try:
            data = conn.sock.recv(_RECV_BYTES)
            if data:
                for payload in conn.decoder.feed(data):
                    message = decode_message(payload)
                    if isinstance(message, Response):
                        self._resolve(message)
                return
        except BlockingIOError:
            return
        except OSError:
            pass
        except ProtocolError as exc:
            # A stream that stopped making sense cannot be trusted to
            # answer what is in flight on it.
            reason = f"undecodable reply ({type(exc).__name__}: {exc})"
        self._fail_connection(conn, reason)

    def _resolve(self, response: Response) -> None:
        future, _ = self._pending.pop(response.id, (None, 0))
        # A caller that timed out has cancelled its future and left.
        if future is not None and future.set_running_or_notify_cancel():
            future.set_result(response)
        self._admit_queued()

    def _fail_connection(self, conn: _Connection, reason: str) -> None:
        if not conn.alive:
            return
        conn.alive = False
        self._selector.unregister(conn.sock)
        conn.sock.close()
        conn.out.clear()
        for rid, (future, index) in list(self._pending.items()):
            if index == conn.index:
                del self._pending[rid]
                _fail(future, TransportError(
                    f"{reason} (request id {rid}, connection {conn.index} "
                    f"to {self.addr[0]}:{self.addr[1]})"
                ))
        self._admit_queued()

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
        """Block for ``future``'s reply, pumping the pool's I/O on this
        thread; a thread that finds another pumping sleeps on its own
        future instead, since that pump resolves it too."""
        timeout = self.timeout_s if timeout_s is None else timeout_s
        deadline = time.monotonic() + timeout
        while not future.done():
            remaining = deadline - time.monotonic()
            if remaining <= 0.0 and future.cancel():
                raise TransportTimeout(
                    f"no reply from {self.addr[0]}:{self.addr[1]} "
                    f"within {timeout:g}s"
                )
            if self._pumping.acquire(blocking=False):
                try:
                    self._pump(future, deadline)
                finally:
                    self._pumping.release()
            else:
                wait_futures([future], max(min(remaining, _HANDOFF_S), 0.0))
        return future.result()

    def flush(self, *, timeout_s: Optional[float] = None) -> Response:
        """Sequenced run-to-idle: every pipelined op submitted before
        this point has its reply on the wire once flush returns."""
        return self.call(
            "flush", [], sync=False,
            arrival_us=self._last_arrival, timeout_s=timeout_s,
        )

    def close(self) -> None:
        """Close every connection and fail what is in flight or queued."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._queue:
                _fail(self._queue.popleft()[1], TransportError("pool closed"))
            for conn in self._conns:
                self._fail_connection(conn, "pool closed")
        with self._pumping:  # a pump notices its failed future first
            self._selector.close()


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
