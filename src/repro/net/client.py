"""The socket client: PolarStore over the wire.

:class:`SocketPool` owns one non-blocking ``TCP_NODELAY`` connection
and no thread or event loop: ``request`` writes the frame at once, and
``wait`` runs the ``selectors`` pump (pending writes, reads, decoding,
resolving) on the caller's thread until its reply settles, so a
closed-loop call is one send and one receive.  One thread drives a
pool, as it would a ``socket.socket``; a second thread opens its own
client.  The pool promises:

* **sequencing** — every data op gets its ``seq`` and its simulated
  ``arrival_us`` stamped *at dispatch*, in dispatch order, and TCP
  keeps that order on the one connection.  A request that fails to
  encode is never stamped, so the server never sees a gap;
* **no client-side window** — every request is written at once, in
  call order, so ``flush`` is a barrier behind every op submitted
  before it.  The server's ``net.window`` is the only admission
  control: a full window replies ``STATUS_REJECTED``, which
  :class:`SocketTransport` raises as
  :class:`~repro.api.transport.AdmissionError`;
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
import time
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
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

#: What the client puts in the wire's ``session`` field.  The server
#: sequences by connection and only echoes it in the handshake reply.
SESSION = 0

#: Bytes one ``recv`` may return.
_RECV_BYTES = 256 * 1024


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


class Reply:
    """One request's reply: pending until the pool's pump settles it
    with a ``response`` or an ``error``."""

    __slots__ = ("done", "response", "error")

    def __init__(self) -> None:
        self.done = False
        self.response: Optional[Response] = None
        self.error: Optional[BaseException] = None

    def _settle(
        self, response: Optional[Response], error: Optional[BaseException]
    ) -> "Reply":
        self.response, self.error, self.done = response, error, True
        return self


class SocketPool:
    """One connection to one server and its sequencer; every request
    goes on the wire as it is made.  Like a ``socket.socket``, a pool
    is driven by one thread: another thread opens its own."""

    def __init__(
        self,
        addr: Union[str, Tuple[str, int]],
        *,
        timeout_s: float = 30.0,
    ) -> None:
        self.addr = parse_addr(addr)
        self.timeout_s = timeout_s
        self.hello: Dict[str, Any] = {}
        self._closed = False
        self._next_id = itertools.count(1)
        self._next_seq = 0
        self._last_arrival = 0.0
        #: request id -> its reply
        self._pending: Dict[int, Reply] = {}
        self._selector = DefaultSelector()
        #: None once the connection is down.
        self._sock: Optional[socket.socket] = None
        self._events = EVENT_READ  # the mask ``_sock`` is registered with
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
    ) -> Reply:
        """Stamp id/seq/arrival in call order and write the frame at
        once; returns its :class:`Reply`.  Raises
        :class:`TransportError` when the pool is closed; a down
        connection or an unencodable request fails the reply instead.
        """
        row = OPS_BY_NAME.get(op)
        if row is None:
            raise ProtocolError(f"unknown op {op!r}")
        if self._closed:
            raise TransportError("socket pool is closed")
        reply = Reply()
        if self._sock is None:
            return reply._settle(
                None, TransportError("the connection is down")
            )
        request_id = next(self._next_id)
        if row.control:
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
            return reply._settle(None, exc)
        if not row.control:
            self._last_arrival = request.arrival_us
            self._next_seq += 1
        self._pending[request_id] = reply
        self._out += frame
        self._flush()
        return reply

    # -- the pump ----------------------------------------------------------

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
        if events != self._events:
            self._selector.modify(self._sock, events)
            self._events = events

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
        reply = self._pending.pop(response.id, None)
        # A caller that timed out has dropped its reply and left.
        if reply is not None:
            reply._settle(response, None)

    def _fail_connection(self, reason: str) -> None:
        """Close the connection and fail everything in flight on it."""
        if self._sock is None:
            return
        self._selector.unregister(self._sock)
        self._sock.close()
        self._sock = None
        self._out.clear()
        pending, self._pending = self._pending, {}
        for rid, reply in pending.items():
            reply._settle(None, TransportError(
                f"{reason} (request id {rid}, "
                f"to {self.addr[0]}:{self.addr[1]})"
            ))

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
        reply = self.request(op, args, sync=sync, arrival_us=arrival_us)
        return self.wait(reply)

    def wait(self, reply: Reply) -> Response:
        """Pump the pool's I/O until ``reply`` settles, then return its
        response or raise what failed it.  After ``timeout_s`` the reply
        is dropped, so a late response is discarded, and
        :class:`TransportTimeout` is raised."""
        deadline = time.monotonic() + self.timeout_s
        while not reply.done:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                self._pending = {
                    rid: pending for rid, pending in self._pending.items()
                    if pending is not reply
                }
                raise TransportTimeout(
                    f"no reply from {self.addr[0]}:{self.addr[1]} "
                    f"within {self.timeout_s:g}s"
                )
            for _, events in self._selector.select(remaining):
                if events & EVENT_WRITE and self._sock is not None:
                    self._flush()
                if events & EVENT_READ and self._sock is not None:
                    self._receive()
        if reply.error is not None:
            raise reply.error
        return reply.response

    def flush(self) -> Response:
        """Sequenced run-to-idle: every pipelined op submitted before
        this point has its reply on the wire once flush returns."""
        return self.call(
            "flush", [], sync=False, arrival_us=self._last_arrival
        )

    def close(self) -> None:
        """Close the connection and fail what is in flight."""
        if self._closed:
            return
        self._closed = True
        self._fail_connection("pool closed")
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
        self, addr: Union[str, Tuple[str, int]], *, timeout_s: float = 30.0
    ) -> None:
        self.pool = SocketPool(addr, timeout_s=timeout_s)
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
        """Open-loop pipelined submit; returns its :class:`Reply`.

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
    "Reply",
    "SocketPool",
    "SocketTransport",
    "parse_addr",
]
