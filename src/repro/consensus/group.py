"""A whole Raft replica group plus the client-side retry loop.

:class:`RaftGroup` owns the fabric, the nodes (each with its own seeded
RNG stream and optional clock skew), the
:class:`~repro.consensus.invariants.SplitBrainTracker`, and the *group
view* of the committed log: every node reports each commit-index advance
here, the first report of an index appends it, and every later report is
cross-checked against the recorded entry — any disagreement is a
divergence violation (State Machine Safety made observable).

Clients drive writes through :meth:`RaftGroup.propose_proc`, which is
where "degrade gracefully across failover" lives: a
:class:`~repro.common.errors.RaftError` (wrong node, fenced leader,
crash mid-commit) triggers bounded seeded-jitter exponential backoff and
a re-propose against the current leader hint, until a hard deadline
turns the retry loop back into fail-fast.  Retries are the *expected*
path during an election — the invariant tracker deduplicates by command
identity, so a command committed once and retried harmlessly is not a
safety event.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import RaftError
from repro.common.rng import make_rng
from repro.consensus.fabric import ConsensusFabric
from repro.consensus.invariants import SplitBrainTracker
from repro.consensus.raft import ElectionTiming, LogEntry, RaftNode


class _NullCounter:
    """Metrics sink when no registry is attached (keeps hot paths flat)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


_NULL_COUNTER = _NullCounter()


class RaftGroup:
    """N Raft nodes, their fabric, tracker, and the client entrypoint."""

    def __init__(
        self,
        engine,
        n_nodes: int = 3,
        seed: int = 0,
        network=None,
        plan=None,
        metrics=None,
        timing: Optional[ElectionTiming] = None,
        clock_skews: Optional[Sequence[float]] = None,
        tracker: Optional[SplitBrainTracker] = None,
        name: str = "raft",
        client_backoff_us: float = 400.0,
    ) -> None:
        self.engine = engine
        self.name = name
        self.node_ids = list(range(n_nodes))
        self.metrics = metrics
        self._counters: Dict[str, object] = {}
        self.tracker = tracker if tracker is not None else SplitBrainTracker()
        self.fabric = ConsensusFabric(
            engine, network=network, plan=plan, metrics=metrics
        )
        self.timing = timing if timing is not None else ElectionTiming()
        skews = list(clock_skews) if clock_skews is not None else []
        self.nodes: List[RaftNode] = []
        for i in self.node_ids:
            node = RaftNode(
                i, self, engine,
                rng=make_rng(seed, "raft", name, i),
                timing=self.timing,
                clock_skew=skews[i] if i < len(skews) else 1.0,
            )
            self.nodes.append(node)
            self.fabric.register(node)
        self.client_backoff_us = float(client_backoff_us)
        self._client_rng = make_rng(seed, "raft", name, "client")
        #: The group view of the committed log (see module docstring).
        self.committed: List[LogEntry] = []
        self.leader_id: Optional[int] = None
        self.leader_term = 0
        self._leader_listeners: List[Callable[[int, int], None]] = []
        # Plain-int tallies so scenario thresholds need no registry.
        self.elections_won = 0
        self.term_bumps = 0
        self.fences = 0
        self.client_retries = 0
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "RaftGroup":
        """Arm every node's election ticker."""
        if not self._started:
            self._started = True
            for node in self.nodes:
                node.start()
        return self

    def stop(self) -> None:
        """Cancel the daemon tickers/heartbeats so ``run_until_idle``
        can terminate after a scenario drains."""
        for node in self.nodes:
            node._life_epoch += 1
            node._lead_epoch += 1
            for proc in (node._ticker_proc, node._hb_proc):
                if proc is not None and not proc.done:
                    proc.cancel()

    def crash(self, node_id: int) -> None:
        self.nodes[node_id].crash()

    def restart(self, node_id: int) -> None:
        self.nodes[node_id].restart()

    @property
    def leader(self) -> Optional[RaftNode]:
        if self.leader_id is None:
            return None
        node = self.nodes[self.leader_id]
        return node if node.alive else None

    def add_leader_listener(self, fn: Callable[[int, int], None]) -> None:
        """``fn(node_id, term)`` fires on every leader election."""
        self._leader_listeners.append(fn)

    def metrics_counter(self, metric: str):
        if self.metrics is None:
            return _NULL_COUNTER
        counter = self._counters.get(metric)
        if counter is None:
            counter = self.metrics.counter(metric)
            self._counters[metric] = counter
        return counter

    # -- node callbacks ----------------------------------------------------

    def _on_term(self, node: RaftNode, term: int) -> None:
        self.tracker.record_term(node.node_id, term)
        self.term_bumps += 1
        self.metrics_counter("consensus.term_bumps").inc()

    def _on_leader(self, node: RaftNode, term: int) -> None:
        self.tracker.record_leader(node.node_id, term)
        self.elections_won += 1
        self.metrics_counter("consensus.elections").inc()
        if node.node_id != self.leader_id:
            self.metrics_counter("consensus.leader_changes").inc()
        self.leader_id = node.node_id
        self.leader_term = term
        for fn in self._leader_listeners:
            fn(node.node_id, term)

    def _on_fence(self, node: RaftNode, deposed_term: int) -> None:
        self.fences += 1
        self.metrics_counter("consensus.fences").inc()
        if self.leader_id == node.node_id and self.leader_term <= deposed_term:
            self.leader_id = None

    def _on_crash(self, node: RaftNode) -> None:
        if self.leader_id == node.node_id:
            self.leader_id = None

    def _on_commit(self, node: RaftNode, index: int, entry: LogEntry) -> None:
        known = len(self.committed)
        if index == known + 1:
            self.committed.append(entry)
            self.metrics_counter("consensus.commits").inc()
        elif index <= known:
            # A replay (restart re-advancing its commit index) or a
            # second replica reaching the same slot: must agree exactly.
            if self.committed[index - 1] != entry:
                self.tracker.record_divergence(
                    f"slot {index}: node {node.node_id} committed "
                    f"{entry!r}, group recorded {self.committed[index - 1]!r}"
                )
        else:
            self.tracker.record_divergence(
                f"slot {index}: node {node.node_id} committed past the "
                f"group view (len {known})"
            )

    def committed_commands(self) -> List[object]:
        return [entry.command for entry in self.committed]

    # -- client entrypoint -------------------------------------------------

    def propose_proc(
        self,
        command,
        timeout_us: float = 400_000.0,
        rng=None,
    ):
        """Engine process: replicate ``command`` or raise
        :class:`RaftError` once ``timeout_us`` of retrying is exhausted.

        Returns the simulated commit acknowledgement time.  On any
        transient :class:`RaftError` — not-leader, fenced, crashed
        mid-commit — waits a seeded-jitter exponential backoff and
        re-proposes against the freshest leader hint.
        """
        engine = self.engine
        if rng is None:
            rng = self._client_rng
        deadline = engine.now_us + timeout_us
        attempt = 0
        while True:
            target = self._pick_target(attempt)
            try:
                if target is None:
                    raise RaftError("no live replica to propose to")
                index, term = target.propose(command)
                yield target.commit_event(index, term)
            except RaftError as exc:
                attempt += 1
                if engine.now_us >= deadline:
                    raise RaftError(
                        f"propose gave up after {attempt} attempts: {exc}"
                    )
                self.client_retries += 1
                self.metrics_counter("consensus.client_retries").inc()
                pause = self.client_backoff_us * (2 ** min(attempt, 6))
                pause *= 0.5 + rng.random()
                pause = max(1.0, min(pause, deadline - engine.now_us))
                yield engine.timeout(pause)
            else:
                self.tracker.acknowledge(command)
                return engine.now_us

    def _pick_target(self, attempt: int) -> Optional[RaftNode]:
        if self.leader_id is not None:
            node = self.nodes[self.leader_id]
            if node.alive:
                return node
        live = [n for n in self.nodes if n.alive]
        if not live:
            return None
        return live[attempt % len(live)]


__all__ = ["RaftGroup"]
