"""Raft consensus running as engine processes.

The volume's :class:`~repro.storage.raft.ReplicationGroup` commits a
write at the majority and records who leads, but has no story for *who*
the leader becomes when the current one dies or is partitioned away.
This package supplies that story on the deterministic event kernel (and
tells the group the outcome through ``PolarStore.attach_consensus``):

* :mod:`repro.consensus.raft` — the node state machine: randomized
  (seeded) election timers, RequestVote/AppendEntries, term-based
  fencing, log repair via nextIndex backoff;
* :mod:`repro.consensus.fabric` — message delivery over the existing
  :class:`~repro.storage.raft.NetworkModel`, filtered through a
  :class:`~repro.chaos.net.NetFaultPlan` (partitions, drops, delays,
  duplicates) and per-node clock skew;
* :mod:`repro.consensus.group` — a whole replica group plus the
  client-side propose/retry loop;
* :mod:`repro.consensus.invariants` — the split-brain safety tracker
  whose four checks list the scenario's violations (one leader per
  term, no committed write lost, terms monotonic, fenced leaders commit
  nothing);
* :mod:`repro.consensus.scenario` — the ``python -m repro raft``
  schedule: symmetric and asymmetric partitions, clock-skewed timers,
  and leader crashes at the worst moments, with byte-deterministic
  artifacts.
"""

from repro.consensus.fabric import ConsensusFabric
from repro.consensus.group import RaftGroup
from repro.consensus.invariants import SplitBrainTracker
from repro.consensus.raft import (
    ElectionTiming,
    LogEntry,
    RaftNode,
    RaftState,
)

__all__ = [
    "ConsensusFabric",
    "ElectionTiming",
    "LogEntry",
    "RaftGroup",
    "RaftNode",
    "RaftState",
    "SplitBrainTracker",
]
