"""Bridging wall-clock request arrival onto the deterministic engine.

The serving layer receives requests in *wall* time (sockets, threads,
kernel scheduling — all nondeterministic) but the engine only knows
*simulated* time.  :class:`WallClockBridge` is the seam: every request
carries a client-stamped simulated arrival time, and the bridge

1. **drains** the engine up to that arrival (firing the completions of
   earlier in-flight ops — their replies leave as a side effect),
2. **admits or rejects** the op against a bounded in-flight window
   measured at the simulated arrival instant (so rejection decisions
   depend only on the seeded request stream, never on socket timing),
3. **spawns** the op's engine process at its simulated arrival, where
   it overlaps with everything already in flight — group commit,
   device queueing, and CPU contention emerge across *network*
   requests exactly as they do across in-process sysbench clients.

Because arrivals are submitted in client sequence order and simulated
time only ever moves to the next arrival, the entire simulated outcome
— per-op latencies, queue depths, rejections — is a pure function of
the (seeded) request stream.  Wall-clock jitter changes only *when*
replies materialize, never *what* they say; the CI ``net-smoke`` job
double-runs a loopback load and diffs the simulated artifact bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.engine.core import Engine


@dataclass(frozen=True)
class BridgeCompletion:
    """One finished op: its token, sim timings, and result (or error)."""

    token: int
    arrival_us: float
    done_us: float
    ok: bool
    result: Any = None
    error: Optional[BaseException] = None
    #: In-flight depth observed when this op was admitted.
    depth_at_admit: int = 0

    @property
    def latency_us(self) -> float:
        """Simulated end-to-end latency, queueing included."""
        return self.done_us - self.arrival_us


@dataclass(frozen=True)
class BridgeDecision:
    """Outcome of one :meth:`WallClockBridge.submit`."""

    admitted: bool
    #: Bridge in-flight depth at the op's simulated arrival (before it).
    queue_depth: int
    #: Ops that completed while draining up to this arrival.
    completions: List[BridgeCompletion]


class WallClockBridge:
    """Bounded in-flight window between a request stream and the engine.

    ``window`` is the admission limit: an op arriving (in simulated
    time) while ``window`` ops are already in flight is rejected, not
    queued — the open-loop serving policy (shed load, keep latency)
    rather than the closed-loop one (queue forever).  A rejected op
    never touches the engine.

    The bridge also emits ``net`` flight-recorder events, stamped with
    simulated time so dumps from a networked run replay
    deterministically.
    """

    def __init__(self, engine: Engine, window: int = 64) -> None:
        if window < 1:
            raise ValueError(f"bridge window must be positive: {window}")
        self.engine = engine
        self.window = window
        self._inflight: Dict[int, tuple] = {}  # token -> (proc, arrival, depth)
        self.admitted = 0
        self.rejected = 0
        self.completed = 0

    # -- introspection -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Ops spawned into the engine and not yet completed."""
        return len(self._inflight)

    # -- the bridge --------------------------------------------------------

    def drain_to(
        self, limit_us: Optional[float] = None
    ) -> List[BridgeCompletion]:
        """Run the engine up to ``limit_us`` (or to idle) and collect
        every op that finished, in token order."""
        self.engine.run_until_idle(limit_us=limit_us)
        return self._collect()

    def submit(
        self,
        token: int,
        arrival_us: float,
        gen_factory: Callable[[], Generator],
    ) -> BridgeDecision:
        """Bridge one op arriving at simulated time ``arrival_us``.

        ``gen_factory`` builds the op's engine generator — called only
        if the op is admitted, so a rejected op costs nothing.  Tokens
        must be unique and submitted in nondecreasing arrival order
        (the per-session sequencer guarantees both).
        """
        if token in self._inflight:
            raise ValueError(f"duplicate bridge token {token}")
        completions = self.drain_to(arrival_us)
        depth = len(self._inflight)
        from repro.obs.events import recorder_active

        rec = recorder_active()
        if depth >= self.window:
            self.rejected += 1
            if rec is not None:
                rec.emit(arrival_us, "net", "reject", token=token,
                         depth=depth, window=self.window)
            return BridgeDecision(False, depth, completions)
        self.admitted += 1
        proc = self.engine.spawn(
            self._guard(gen_factory),
            name=f"net-op-{token}",
            at_us=arrival_us,
        )
        self._inflight[token] = (proc, float(arrival_us), depth)
        if rec is not None:
            rec.emit(arrival_us, "net", "admit", token=token, depth=depth)
        return BridgeDecision(True, depth, completions)

    def flush(self) -> List[BridgeCompletion]:
        """Run the engine to idle; every in-flight op completes."""
        return self.drain_to(None)

    # -- internals ---------------------------------------------------------

    def _guard(self, gen_factory: Callable[[], Generator]) -> Generator:
        """Wrap an op so failures — building its generator included —
        become per-op results, not dead processes that poison the run
        loop, and so the completion time is captured at the instant the
        op finishes."""
        try:
            result = yield from gen_factory()
        except Exception as exc:  # noqa: BLE001 - delivered per-op
            return (False, exc, self.engine.now_us)
        return (True, result, self.engine.now_us)

    def _collect(self) -> List[BridgeCompletion]:
        done_tokens = [
            token for token, (proc, _, _) in self._inflight.items()
            if proc.done
        ]
        out: List[BridgeCompletion] = []
        from repro.obs.events import recorder_active

        rec = recorder_active()
        for token in sorted(done_tokens):
            proc, arrival_us, depth = self._inflight.pop(token)
            ok, payload, done_us = proc.value
            completion = BridgeCompletion(
                token=token,
                arrival_us=arrival_us,
                done_us=done_us,
                ok=ok,
                result=payload if ok else None,
                error=None if ok else payload,
                depth_at_admit=depth,
            )
            out.append(completion)
            self.completed += 1
            if rec is not None:
                rec.emit(done_us, "net", "complete", token=token, ok=ok,
                         latency_us=round(completion.latency_us, 3))
        return out


__all__ = ["BridgeCompletion", "BridgeDecision", "WallClockBridge"]
