"""Queueing primitives for the event kernel.

:class:`Resource` is a ``k``-server FIFO queue that supports **two call
styles over one shared state**:

* the **engine-native** style — a process yields through
  :meth:`Resource.process`; it really waits in the FIFO list, is granted a
  server by an event, and occupies it for its service time.  Queue waits
  are measured, and batching/saturation effects emerge from genuine
  interleaving;
* the **analytic adapter** — :meth:`Resource.serve` is the pre-engine
  ``max(start, busy_until) + service`` arithmetic, pinned call for call
  against ``tests/engine/legacy_resource.py``.  It updates the *same*
  per-server ``free_at`` state, so synchronous code paths and engine
  processes queue against each other consistently.

The two styles are timing-equivalent for a single client (the
analytic-equivalence property covered by ``tests/engine``): an engine
process arriving at an idle resource starts at ``max(now, free_at)`` and
finishes ``service_us`` later, exactly like ``serve``.

Observability: :meth:`Resource.bind_metrics` publishes per-resource
``engine.resource.queue_wait_us`` histograms through a
:class:`repro.obs.metrics.MetricsRegistry`, which is how device
saturation shows up in ``python -m repro metrics``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.engine.core import Engine, EngineError, Event


class Resource:
    """``k`` identical servers fronted by one FIFO wait list.

    The ``servers`` argument models internal parallelism — NAND channels,
    CPU cores, replica streams: at most that many requests are in
    service, the rest wait in arrival order.  ``_free_at`` holds when
    each server next frees; a request takes the first earliest-free one.
    """

    def __init__(self, name: str = "resource", servers: int = 1) -> None:
        if servers <= 0:
            raise ValueError(f"need at least one server, got {servers}")
        self.name = name
        self.engine: Optional[Engine] = None
        self._free_at: List[float] = [0.0] * servers
        # FIFO wait list: (grant event, arrival time, service time).
        self._waiters: Deque[Tuple[Event, float, float]] = deque()
        self._redispatch_at: Optional[float] = None
        self._wait_hist = None

    # -- construction helpers ---------------------------------------------

    def bind_engine(self, engine: Engine) -> None:
        """Attach (or re-attach) the event kernel."""
        self.engine = engine

    def bind_metrics(self, registry, **labels) -> None:
        """Publish the queue-wait histogram."""
        labels.setdefault("resource", self.name)
        self._wait_hist = registry.histogram(
            "engine.resource.queue_wait_us", **labels
        )

    # -- analytic adapter --------------------------------------------------

    def serve(self, start_us: float, service_us: float) -> float:
        """Legacy synchronous path: queue a request arriving at
        ``start_us`` needing ``service_us``; return its completion time.

        Exactly the pre-engine ``Resource.serve`` arithmetic, operating on
        the same ``free_at`` state the engine-native path uses — so a
        synchronous call from inside an engine run still occupies the
        queue that concurrent processes wait on.
        """
        if service_us < 0:
            raise ValueError(f"negative service time {service_us}")
        free = min(self._free_at)
        idx = self._free_at.index(free)  # the first earliest-free server
        begin = max(start_us, free)
        end = begin + service_us
        self._free_at[idx] = end
        self._account(begin - start_us)
        return end

    def _account(self, wait_us: float) -> None:
        if self._wait_hist is not None:
            self._wait_hist.record(max(wait_us, 0.0))

    # -- engine-native path -------------------------------------------------

    def process(self, service_us: float):
        """Generator: wait FIFO for a server, hold it ``service_us``,
        return the completion time.  Yields through the event kernel, so
        other processes interleave while this one waits or is served."""
        if self.engine is None:
            raise EngineError(
                f"resource {self.name!r} is not bound to an engine"
            )
        if service_us < 0:
            raise ValueError(f"negative service time {service_us}")
        engine = self.engine
        arrive = engine.now_us
        grant = engine.event(f"{self.name}.grant")
        self._waiters.append((grant, arrive, float(service_us)))
        self._dispatch()
        begin = yield grant
        # Service occupancy was booked at grant time (the server's
        # free_at already covers it); the process now lives through it.
        if begin + service_us > engine.now_us:
            yield engine.sleep_until(begin + service_us)
        return engine.now_us

    def _dispatch(self) -> None:
        engine = self.engine
        now = engine.now_us
        while self._waiters:
            free = min(self._free_at)
            if free > now:
                # Earliest server frees in the future; wake up then.  (A
                # single pending wake-up suffices: dispatch re-evaluates.)
                if self._redispatch_at is None or self._redispatch_at > free:
                    self._redispatch_at = free
                    engine.schedule(free, self._redispatch)
                return
            grant, arrive, service_us = self._waiters.popleft()
            # The first earliest-free server takes it.
            self._free_at[self._free_at.index(free)] = now + service_us
            self._account(now - arrive)
            grant.succeed(now)

    def _redispatch(self) -> None:
        self._redispatch_at = None
        self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Resource({self.name!r}, servers={len(self._free_at)}, "
            f"waiting={len(self._waiters)}, "
            f"busy_until={max(self._free_at):.1f})"
        )


class Queue:
    """Unbounded FIFO item queue between processes.

    Producers :meth:`put` synchronously; consumers yield :meth:`get` and
    wake in arrival order as items land.  A chunk migration takes one of
    a fixed set of stream tokens from a queue and puts it back when done
    (:mod:`repro.cluster.runtime`).
    """

    def __init__(self, engine: Engine, name: str = "queue") -> None:
        self.engine = engine
        self.name = name
        self._items: Deque = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Yieldable: resolves with the next item (FIFO both ways)."""
        ev = self.engine.event(f"{self.name}.get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev
