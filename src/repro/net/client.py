"""The socket client: PolarStore over the wire.

:class:`SocketPool` owns one non-blocking ``TCP_NODELAY`` connection
and no thread or event loop: ``request`` writes the frame at once, and
``wait`` runs the ``selectors`` pump (pending writes, reads, decoding,
resolving) on the caller's thread until its future resolves, so a
closed-loop call is one send and one receive.  The pool promises:

* **sequencing** — every data op gets its ``seq`` and its simulated
  ``arrival_us`` stamped *at dispatch*, under the lock, in dispatch
  order, and TCP keeps that order on the one connection.  A request
  that times out while queued therefore never occupies a sequence slot,
  so the server never sees a gap;
* **admission control** — a bounded in-flight window
  (``max_inflight``) plus a bounded dispatch queue (``queue_cap``);
  a full queue rejects immediately with
  :class:`~repro.api.transport.AdmissionError` (backpressure the
  caller can see) instead of buffering without bound;
* **timeouts** — each blocking wait carries a wall-clock deadline
  (:class:`~repro.api.transport.TransportTimeout`); a late reply is
  discarded;
* **failure containment** — a mid-stream disconnect fails every
  request in flight at once;
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

#: What the client puts in the wire's ``session`` field.  The server
#: sequences by connection and only echoes it in the handshake reply.
SESSION = 0

#: Bytes one ``recv`` may return.
_RECV_BYTES = 256 * 1024

#: How long a waiter sleeps on its future while another thread pumps.
_HANDOFF_S = 0.001

#: Longest single ``select``: bounds how late the pump notices that
#: another thread settled its future (a failed send, ``close``).
_SLICE_S = 0.05


def parse_addr(addr: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` or ``(host, port)`` -> ``(host, port)``; anything
    else, a non-numeric port or one outside 0-65535 included, raises
    :class:`TransportError`."""
    if isinstance(addr, str):
        host, sep, port = addr.rpartition(":")
        if not sep or not host:
            raise TransportError(
                f"address must be 'host:port', got {addr!r}"
            )
    else:
        host, port = addr
    try:
        number = int(port)
    except (TypeError, ValueError):
        raise TransportError(
            f"port must be an integer, got {port!r}"
        ) from None
    if not 0 <= number <= 65535:
        raise TransportError(f"port {number} is outside 0-65535")
    return (str(host), number)


def _fail(future: Future, exc: BaseException) -> None:
    """Fail ``future`` unless its waiter already gave up on it."""
    if future.set_running_or_notify_cancel():
        future.set_exception(exc)


class SocketPool:
    """One connection to one server, its sequencer, and a bounded
    dispatch pipeline (window + queue) — the client-side half of the
    serving layer's admission control."""

    def __init__(
        self,
        addr: Union[str, Tuple[str, int]],
        *,
        max_inflight: int = 256,
        queue_cap: int = 4096,
        timeout_s: float = 30.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self.addr = parse_addr(addr)
        self.max_inflight = max_inflight
        self.queue_cap = queue_cap
        self.timeout_s = timeout_s
        self.hello: Dict[str, Any] = {}
        self._closed = False
        self._next_id = itertools.count(1)
        self._next_seq = 0
        self._last_arrival = 0.0
        #: request id -> Future[Response]
        self._pending: Dict[int, Future] = {}
        #: ((op, args, sync, arrival_us, control), future) awaiting a slot.
        self._queue: Deque[Tuple[tuple, Future]] = deque()
        self._lock = threading.Lock()  # pool state and socket I/O
        self._pumping = threading.Lock()  # held by the one thread in select
        self._selector = DefaultSelector()
        #: None once the connection is down.
        self._sock: Optional[socket.socket] = None
        self._out = bytearray()  # frame bytes the socket has not taken yet
        self._decoder = FrameDecoder(MAX_FRAME_BYTES)
        try:
            self._connect()
        except BaseException:
            self.close()
            raise

    def _connect(self) -> None:
        host, port = self.addr
        try:
            sock = socket.create_connection(self.addr, self.timeout_s)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self._sock = sock
        self._selector.register(sock, EVENT_READ)
        # Handshake: version check + deployment shape.
        response = self.wait(self.request("hello", [SESSION, VERSION]))
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
        if self._sock is None:
            _fail(future, TransportError("the connection is down"))
            return
        op, args, sync, arrival_us, control = spec
        request_id = next(self._next_id)
        if control:
            request = Request(id=request_id, op=op, args=args)
        else:
            request = Request(
                id=request_id, op=op, args=args, seq=self._next_seq,
                session=SESSION, flags=FLAG_SYNC if sync else 0,
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
        self._pending[request_id] = future
        self._out += frame
        self._flush()

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
        for _, events in ready:
            if events & EVENT_WRITE and self._sock is not None:
                self._flush()
            if events & EVENT_READ and self._sock is not None:
                self._receive()

    def _flush(self) -> None:
        """Write what the socket takes now; the pump writes the rest."""
        try:
            sent = self._sock.send(self._out)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._fail_connection("connection lost while sending")
            return
        del self._out[:sent]
        events = EVENT_READ | (EVENT_WRITE if self._out else 0)
        if self._selector.get_key(self._sock).events != events:
            self._selector.modify(self._sock, events)

    def _receive(self) -> None:
        reason = "connection lost mid-stream"
        try:
            data = self._sock.recv(_RECV_BYTES)
            if data:
                for payload in self._decoder.feed(data):
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
        self._fail_connection(reason)

    def _resolve(self, response: Response) -> None:
        future = self._pending.pop(response.id, None)
        # A caller that timed out has cancelled its future and left.
        if future is not None and future.set_running_or_notify_cancel():
            future.set_result(response)
        self._admit_queued()

    def _fail_connection(self, reason: str) -> None:
        """Close the connection and fail everything in flight on it;
        queued work then fails as it is dispatched."""
        if self._sock is None:
            return
        self._selector.unregister(self._sock)
        self._sock.close()
        self._sock = None
        self._out.clear()
        pending, self._pending = self._pending, {}
        for rid, future in pending.items():
            _fail(future, TransportError(
                f"{reason} (request id {rid}, "
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
    ) -> Response:
        """Send one request and block for its reply."""
        future = self.request(op, args, sync=sync, arrival_us=arrival_us)
        return self.wait(future)

    def wait(self, future: Future) -> Response:
        """Block up to ``timeout_s`` for ``future``'s reply, pumping the
        pool's I/O on this thread; a thread that finds another pumping
        sleeps on its own future instead, since that pump resolves it
        too."""
        deadline = time.monotonic() + self.timeout_s
        while not future.done():
            remaining = deadline - time.monotonic()
            if remaining <= 0.0 and future.cancel():
                raise TransportTimeout(
                    f"no reply from {self.addr[0]}:{self.addr[1]} "
                    f"within {self.timeout_s:g}s"
                )
            if self._pumping.acquire(blocking=False):
                try:
                    self._pump(future, deadline)
                finally:
                    self._pumping.release()
            else:
                wait_futures([future], max(min(remaining, _HANDOFF_S), 0.0))
        return future.result()

    def flush(self) -> Response:
        """Sequenced run-to-idle: every pipelined op submitted before
        this point has its reply on the wire once flush returns."""
        return self.call(
            "flush", [], sync=False, arrival_us=self._last_arrival
        )

    def close(self) -> None:
        """Close the connection and fail what is in flight or queued."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._queue:
                _fail(self._queue.popleft()[1], TransportError("pool closed"))
            self._fail_connection("pool closed")
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
            op, spec.bind(args, kwargs),
            sync=True, arrival_us=self._now_us,
        )
        return self._decode(spec, response)

    def submit(self, op: str, /, *args, arrival_us: float = 0.0):
        """Open-loop pipelined submit; returns a Future[Response].

        The reply materializes when a later arrival (or :meth:`flush`)
        drains the engine past the op's completion, or immediately with
        ``STATUS_REJECTED`` if the server's admission window is full.
        """
        return self.pool.request(
            op, data_op(op).bind(args, {}), sync=False,
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
