"""Deterministic discrete-event kernel.

The simulator historically modeled contention with analytic
``Resource.busy_until`` arithmetic inside a synchronous call tree: every
request computed its own completion time and nothing ever *waited*.  That
reproduces single-request latency but cannot express emergent concurrency
phenomena — group commit batching, queue-depth buildup, background work
stealing idle device time — because no two requests are ever in flight at
once.

``Engine`` is the event kernel that makes those phenomena first-class:

* an event heap keyed on ``(time_us, seq)`` — the monotonically increasing
  ``seq`` makes simultaneous events fire in schedule order, so every run
  over the same inputs replays identically;
* generator-based :class:`Process`\\ es that ``yield`` commands (timeouts
  and events; a resource request is an event) and are resumed by the
  kernel when the thing they wait for happens;
* :class:`Event` as the one synchronization primitive (processes wait on
  it; resources and pipelines fire it).

Time never moves backwards: scheduling into the past clamps to *now*.
The kernel deliberately has no threads, no wall clock, and no randomness
of its own — determinism is a feature under test (see the CI determinism
job), not an accident.
"""

from __future__ import annotations

import heapq
from typing import (
    Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.common.errors import ReproError


class EngineError(ReproError):
    """Misuse of the event kernel (bad yield, double fire, ...)."""


class Timeout:
    """Yieldable: resume the process after ``delay_us`` of simulated time."""

    __slots__ = ("delay_us",)

    def __init__(self, delay_us: float) -> None:
        if delay_us < 0:
            raise EngineError(f"negative timeout {delay_us}")
        self.delay_us = float(delay_us)


class SleepUntil:
    """Yieldable: resume the process at absolute time ``when_us`` (no-op
    if that moment already passed)."""

    __slots__ = ("when_us",)

    def __init__(self, when_us: float) -> None:
        self.when_us = float(when_us)


class Event:
    """A one-shot synchronization point.

    Processes wait on it by yielding it; whoever owns the event fires it
    with :meth:`succeed` (delivering a value) or :meth:`fail` (raising an
    exception inside every waiter).  Waiters are woken through the event
    heap, so wake order is deterministic.
    """

    __slots__ = ("engine", "name", "_fired", "_value", "_error", "_waiters")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._fired = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._waiters: List["Process"] = []

    @property
    def fired(self) -> bool:
        return self._fired

    def succeed(self, value: Any = None) -> None:
        if self._fired:
            raise EngineError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        for proc in self._waiters:
            self.engine.schedule(self.engine.now_us, proc._step, value)
        self._waiters.clear()

    def fail(self, error: BaseException) -> None:
        if self._fired:
            raise EngineError(f"event {self.name!r} fired twice")
        self._fired = True
        self._error = error
        for proc in self._waiters:
            self.engine.schedule(
                self.engine.now_us, proc._step, None, error
            )
        self._waiters.clear()

    def _add_waiter(self, proc: "Process") -> None:
        if self._fired:
            self.engine.schedule(
                self.engine.now_us, proc._step, self._value, self._error
            )
        else:
            self._waiters.append(proc)


class Process:
    """One concurrent activity, driven by a generator.

    The generator yields :class:`Timeout`, :class:`SleepUntil` or
    :class:`Event` (a resource request yields its grant event, see
    :mod:`repro.engine.resources`); anything else fails the process with
    :class:`EngineError`.  Its ``return`` value becomes :attr:`value`.  An
    uncaught exception surfaces from the engine's run loop — a silent
    dead process would corrupt the simulation.
    """

    def __init__(self, engine: "Engine", gen: Generator, name: str = "") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = False
        self.value: Any = None
        self.error: Optional[BaseException] = None

    def _finish(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self.done = True
        del self.engine._live[self]
        self.value = value
        self.error = error
        if error is not None:
            self.engine._dead.append(self)

    def _step(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        if self.done:
            return
        try:
            if error is not None:
                cmd = self.gen.throw(error)
            else:
                cmd = self.gen.send(value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced by the run loop
            self._finish(error=exc)
            return
        engine = self.engine
        if isinstance(cmd, Timeout):
            engine.schedule(engine.now_us + cmd.delay_us, self._step)
        elif isinstance(cmd, SleepUntil):
            engine.schedule(cmd.when_us, self._step)
        elif isinstance(cmd, Event):
            cmd._add_waiter(self)
        else:
            self._finish(error=EngineError(
                f"process {self.name!r} yielded unsupported {cmd!r}"
            ))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Engine:
    """The discrete-event kernel: one heap, one clock, many processes."""

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = float(start_us)
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        #: Processes that died with an exception; surfaced by the run
        #: loops so failures cannot pass silently.
        self._dead: List[Process] = []
        #: Processes spawned and not yet finished, in spawn order.
        self._live: Dict[Process, None] = {}

    # -- time ------------------------------------------------------------

    @property
    def now_us(self) -> float:
        return self._now_us

    def advance_to(self, when_us: float) -> float:
        """Move idle time forward (no-op if already later)."""
        if when_us > self._now_us:
            self._now_us = when_us
        return self._now_us

    # -- yieldable factories ----------------------------------------------

    def timeout(self, delay_us: float) -> Timeout:
        return Timeout(delay_us)

    def sleep_until(self, when_us: float) -> SleepUntil:
        return SleepUntil(when_us)

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    # -- scheduling -------------------------------------------------------

    def schedule(self, when_us: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at ``when_us`` (clamped to *now*: simulated
        time never flows backwards)."""
        if when_us < self._now_us:
            when_us = self._now_us
        self._seq += 1
        heapq.heappush(self._heap, (float(when_us), self._seq, fn, args))

    def spawn(
        self, gen: Generator, name: str = "", at_us: Optional[float] = None
    ) -> Process:
        """Register a generator as a concurrent process; it takes its
        first step at ``at_us`` (default: immediately)."""
        proc = Process(self, gen, name)
        self._live[proc] = None
        self.schedule(self._now_us if at_us is None else at_us, proc._step)
        return proc

    def close(self) -> None:
        """Abandon every pending process and event.

        A process waiting on an event and the event's waiter list refer
        to each other, and a scheduled step refers to its process, which
        refers to this engine: left alone, pending work keeps everything
        its generators reference alive until a full garbage collection.
        Closing each unfinished generator (which runs its ``finally``
        blocks) and dropping the heap frees them by reference counting.
        """
        while self._live:
            proc, _ = self._live.popitem()
            proc.done = True
            proc.gen.close()
        self._heap.clear()
        self._dead.clear()

    # -- run loops ---------------------------------------------------------

    def run_until_idle(self, limit_us: Optional[float] = None) -> float:
        """Drain the heap (optionally stopping once *now* passes
        ``limit_us``); returns the final simulated time."""
        heap, pop = self._heap, heapq.heappop
        while heap:
            if limit_us is not None and heap[0][0] > limit_us:
                break
            # One dispatch inline: this loop runs once per event of every
            # engine workload, and the two calls saved are 2% of
            # ``oltp_rw``.
            when_us, _seq, fn, args = pop(heap)
            if when_us > self._now_us:
                self._now_us = when_us
            fn(*args)
            if self._dead:
                raise self._dead.pop(0).error
        return self._now_us

    def run_until_complete(self, procs: Sequence[Process]) -> float:
        """Dispatch events until every process in ``procs`` finished.
        Daemon processes may still hold scheduled events afterwards."""
        heap, pop = self._heap, heapq.heappop
        # A finished process stays finished, so only the first one not
        # yet done is checked per event (``engine.run`` passes one).
        waiting = iter(procs)
        proc = next(waiting, None)
        while heap:
            while proc is not None and proc.done:
                proc = next(waiting, None)
            if proc is None:
                break
            when_us, _seq, fn, args = pop(heap)
            if when_us > self._now_us:
                self._now_us = when_us
            fn(*args)
            if self._dead:
                raise self._dead.pop(0).error
        for proc in procs:
            if proc in self._dead:
                self._dead.remove(proc)
                raise proc.error
        return self._now_us

    def run(self, gen: Generator):
        """Spawn ``gen`` and drive the engine until it completes; returns
        the process's return value (exceptions propagate)."""
        proc = self.spawn(gen)
        self.run_until_complete([proc])
        if not proc.done:
            raise EngineError(
                f"process {proc.name!r} never completed (deadlock: heap "
                "drained while it still waits)"
            )
        return proc.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Engine(now_us={self._now_us:.1f}, "
            f"pending={len(self._heap)})"
        )
