"""The volume's replication state and commit rule (§3.2.1).

PolarStore commits a write once the leader and a majority of replicas
have persisted it.  :class:`ReplicationGroup` holds what that rule needs
to know about one volume's replica set — who is alive, which pages each
replica missed, who leads and in which epoch — and states the rule once:
:meth:`~ReplicationGroup.require_quorum` before any replica is touched,
:meth:`~ReplicationGroup.commit_time` once the acks are in.
:class:`~repro.storage.store.PolarStore` owns one (``store.group``) and
makes the node calls; the group-commit pipeline, the compaction
scheduler and the chaos harness read the same object.

Leadership is not elected by a protocol: the paper leaves it to PolarFS.
Replica 0 leads epoch 0 until it crashes; then
:meth:`~ReplicationGroup.successor` names the live replica with the
highest durable redo LSN (ties to the lowest index) and
:meth:`~ReplicationGroup.elect` opens a new epoch for it.

Timing: the leader issues the replica RPCs in parallel and each follower
persists through its own device queue, so a write commits at the
leader's persist time joined with the ``quorum - 1``-th fastest follower
acknowledgement (majority of 3 = leader + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.common.errors import RaftError
from repro.common.units import KiB


@dataclass(frozen=True)
class NetworkModel:
    """Same-cluster RPC cost: fixed one-way latency + per-KiB serialization.

    Defaults model a 25/100 Gbps datacenter network with kernel-bypass
    I/O: ~18 µs one-way, ~0.04 µs per KiB.
    """

    one_way_us: float = 18.0
    per_kib_us: float = 0.04

    def rpc_us(self, payload_bytes: int) -> float:
        """One-way message cost for ``payload_bytes``."""
        return self.one_way_us + self.per_kib_us * payload_bytes / KiB


class ReplicationGroup:
    """Replica-set state of one volume plus the majority-commit rule.

    Replicas are addressed by index (the same index as
    ``PolarStore.nodes``).
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise RaftError("a replication group needs at least one replica")
        self.size = size
        self.alive: List[bool] = [True] * size
        #: Pages each replica missed while down or while its device was
        #: failing: its copy (if any) is stale, so it is excluded from
        #: reads and repair sourcing until resynced.
        self.missed: List[Set[int]] = [set() for _ in range(size)]
        self.leader = 0
        #: Bumped by every :meth:`elect`; in-flight pipelined commits
        #: snapshot it so an election fences them.
        self.epoch = 0

    @property
    def quorum(self) -> int:
        return self.size // 2 + 1

    @property
    def acks_needed(self) -> int:
        """Follower acknowledgements a commit needs beyond the leader's
        own persist."""
        return self.quorum - 1

    def followers(self) -> List[int]:
        """Replica indexes other than the current leader's, in order."""
        return [i for i in range(self.size) if i != self.leader]

    def elect(self, index: int) -> None:
        """Move leadership to ``index`` and open a new epoch."""
        self.leader = index
        self.epoch += 1

    def successor(self, durable_lsns: Sequence[int]) -> Optional[int]:
        """The replica a leader crash hands leadership to: the live one
        with the highest ``durable_lsns[index]``, ties to the lowest
        index; ``None`` when no replica is alive.

        Every acked batch sits on the leader plus at least one follower,
        so after a leader crash the winner holds the newest acked batch.
        An older batch or page it missed while its device was failing is
        in :attr:`missed`: reads of those pages go to a current peer
        until a resync repairs the winner.
        """
        live = [i for i in range(self.size) if self.alive[i]]
        if not live:
            return None
        return max(live, key=lambda i: (durable_lsns[i], -i))

    def current(self, index: int, page_no: int) -> bool:
        """Does replica ``index`` hold a current copy of ``page_no``?"""
        return self.alive[index] and page_no not in self.missed[index]

    def require_quorum(self) -> None:
        """Refuse before mutating any replica when quorum is already known
        to be lost: writing the leader first would leave an orphaned local
        copy of an update that never committed — unreadable garbage no
        healthy replica can repair.
        """
        if not self.alive[self.leader]:
            raise RaftError("leader replica is down (awaiting election)")
        alive = 1 + sum(self.alive[i] for i in self.followers())
        if alive < self.quorum:
            raise RaftError(f"no quorum: {alive}/{self.size} reachable")

    def commit_time(self, leader_done: float, acks: Iterable[float]) -> float:
        """When a write commits: the leader's persist joined with the
        ``acks_needed``-th follower acknowledgement.  Raises
        :class:`RaftError` when too few followers acknowledged."""
        acks = sorted(acks)
        needed = self.acks_needed
        if len(acks) < needed:
            raise RaftError(
                f"no quorum: {1 + len(acks)}/{self.size} alive"
            )
        return max(leader_done, acks[needed - 1]) if needed else leader_done
