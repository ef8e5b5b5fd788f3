"""repro.net — PolarStore over real sockets.

The serving layer the paper's "cloud-native" framing implies: the
compression stack exists to serve fleets of database instances over a
network, and this package is the wire between them.

``repro.net.protocol``
    The length-prefixed binary wire protocol: CRC-checked frames, a
    typed value codec, and one numbered op per ``PolarStoreClient``
    operation, sequenced per connection.  A frame either decodes
    exactly or is rejected loudly (bad magic, oversize, CRC mismatch,
    arity drift).

``repro.net.server``
    The TCP front-end hosting one engine-bound store or cluster: one
    ``selectors`` loop that reads, decodes, runs the op and writes its
    reply inline, on one thread.  Each connection executes its data ops
    in ``seq`` order and refuses any other.  Wall-clock request arrival
    is bridged onto the deterministic engine through
    :class:`repro.engine.bridge.WallClockBridge`: requests enqueue as
    the engine processes, replies carry simulated latency plus real
    payload bytes, and the simulated outcome of a seeded request
    stream is byte-identical no matter how the wall clock jitters.

``repro.net.client``
    The socket client: one connection, a bounded in-flight window with
    queue-full rejection (admission control), per-request timeouts,
    and backpressure — driven by the calling thread, with no event loop
    or thread of its own, so a closed-loop call is one send and one
    receive.  :class:`SocketTransport` presents the same transport
    surface as in-process access, so ``PolarStore.connect(addr)``
    returns the exact same
    :class:`~repro.api.client.PolarStoreClient` as
    ``PolarStore.open(config)``.

``repro.net.loadgen``
    Open-loop load generation (seeded Poisson arrivals) whose latency
    percentiles, rejection counts, and queue depths export through
    ``repro.obs`` — the ``python -m repro load`` command.
"""
