"""Split-brain safety invariants for the consensus layer.

A :class:`SplitBrainTracker` is a passive observer wired into every
:class:`~repro.consensus.raft.RaftNode` and the group's commit path.  It
records the safety-relevant events as they happen (leader elections,
term changes, fences, commit advances, client acknowledgements) and
exposes four checks, which :meth:`SplitBrainTracker.check` folds into
one violation list for the Raft scenario's verdict:

* **one leader per term** — Election Safety: two nodes claiming
  leadership of the same term is split-brain, full stop;
* **terms monotonic per node** — a node whose current term ever goes
  backwards has corrupted its persistent state;
* **fenced leaders commit nothing** — once a leader is deposed at term
  T, no commit-index advance may be attributed to it *as leader of T*;
* **no committed write lost** — every command a client was acknowledged
  for must appear in the group's final committed log, across any
  election/partition/crash schedule.

The tracker never throws during the run: violations accumulate as
human-readable strings so one broken invariant cannot mask another, and
the scenario reports them all at the end.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.consensus.raft import RaftState


class SplitBrainTracker:
    """Accumulates consensus safety evidence and checks it."""

    def __init__(self) -> None:
        #: term -> node ids that became leader of that term.
        self.leaders_by_term: Dict[int, Set[int]] = {}
        #: node id -> highest term observed so far.
        self._max_term: Dict[int, int] = {}
        #: (node id, term) pairs deposed by a higher term.
        self.fenced: Set[Tuple[int, int]] = set()
        #: Commands acknowledged to clients (must survive everything).
        self.acked: List[object] = []
        self.violations: List[str] = []

    # -- recording hooks ---------------------------------------------------

    def record_leader(self, node: int, term: int) -> None:
        claimants = self.leaders_by_term.setdefault(term, set())
        claimants.add(node)
        if len(claimants) > 1:
            self.violations.append(
                f"split-brain: term {term} has leaders {sorted(claimants)}"
            )

    def record_term(self, node: int, term: int) -> None:
        prev = self._max_term.get(node, 0)
        if term < prev:
            self.violations.append(
                f"term regression: node {node} went {prev} -> {term}"
            )
        else:
            self._max_term[node] = term

    def record_fence(self, node: int, deposed_term: int, by_term: int) -> None:
        self.fenced.add((node, deposed_term))

    def record_commit_advance(
        self, node: int, state: RaftState, term: int, commit_index: int
    ) -> None:
        if state is RaftState.LEADER and (node, term) in self.fenced:
            self.violations.append(
                f"fenced leader committed: node {node} advanced commit to "
                f"{commit_index} as leader of deposed term {term}"
            )

    def acknowledge(self, command: object) -> None:
        """A client observed this command as committed."""
        self.acked.append(command)

    def record_divergence(self, detail: str) -> None:
        self.violations.append(f"log divergence: {detail}")

    # -- checks ------------------------------------------------------------

    def one_leader_per_term(self) -> List[str]:
        return [v for v in self.violations if v.startswith("split-brain")]

    def terms_monotonic(self) -> List[str]:
        return [v for v in self.violations if v.startswith("term regression")]

    def fenced_commit_nothing(self) -> List[str]:
        return [
            v for v in self.violations
            if v.startswith("fenced leader committed")
        ]

    def no_committed_write_lost(
        self, committed_commands: Iterable[object]
    ) -> List[str]:
        """Every acknowledged command must be in the final committed log
        (plus any divergence between replicas' committed prefixes)."""
        final = set(map(repr, committed_commands))
        out = [v for v in self.violations if v.startswith("log divergence")]
        for command in self.acked:
            if repr(command) not in final:
                out.append(f"acked write lost: {command!r} not committed")
        return out

    def check(self, committed_commands: Iterable[object]) -> List[str]:
        """Every split-brain violation, against the group's final
        committed command sequence, one invariant after another."""
        return (
            self.one_leader_per_term()
            + self.no_committed_write_lost(committed_commands)
            + self.terms_monotonic()
            + self.fenced_commit_nothing()
        )


__all__ = ["SplitBrainTracker"]
