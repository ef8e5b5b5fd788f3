"""repro.net — PolarStore over real sockets.

The serving layer the paper's "cloud-native" framing implies: the
compression stack exists to serve fleets of database instances over a
network, and this package is the wire between them.

``repro.net.protocol``
    The length-prefixed binary wire protocol: CRC-checked frames, a
    typed value codec, and one numbered op per ``PolarStoreClient``
    operation.  A frame either decodes exactly or is rejected loudly
    (bad magic, oversize, CRC mismatch, arity drift).

``repro.net.server``
    The asyncio TCP front-end hosting one engine-bound store or
    cluster.  Wall-clock request arrival is bridged onto the
    deterministic engine through
    :class:`repro.engine.bridge.WallClockBridge`: requests enqueue as
    the engine processes, replies carry simulated latency plus real
    payload bytes, and the simulated outcome of a seeded request
    stream is byte-identical no matter how the wall clock jitters.

``repro.net.client``
    The pooled socket client: N connections, a bounded in-flight
    window with queue-full rejection (admission control), per-request
    timeouts, and backpressure — driven by the calling thread, with no
    event loop or thread of its own, so a closed-loop call is one send
    and one receive.  :class:`SocketTransport` presents the
    same transport surface as in-process access, so
    ``PolarStore.connect(addr)`` returns the exact same
    :class:`~repro.api.client.PolarStoreClient` as
    ``PolarStore.open(config)``.

``repro.net.loadgen``
    Open-loop arrival-process load generation (Poisson / bursty /
    diurnal, seeded) whose latency percentiles, rejection counts, and
    queue depths export through ``repro.obs`` — the ``python -m repro
    load`` command.
"""

from repro.net.client import SocketPool, SocketTransport
from repro.net.loadgen import (
    ArrivalSpec,
    LoadReport,
    build_schedule,
    run_load,
)
from repro.net.protocol import (
    FrameDecoder,
    FrameError,
    ProtocolError,
    Request,
    Response,
    encode_frame,
)
from repro.net.server import PolarStoreServer, serve_in_thread

__all__ = [
    "ArrivalSpec",
    "FrameDecoder",
    "FrameError",
    "LoadReport",
    "PolarStoreServer",
    "ProtocolError",
    "Request",
    "Response",
    "SocketPool",
    "SocketTransport",
    "build_schedule",
    "encode_frame",
    "run_load",
    "serve_in_thread",
]
