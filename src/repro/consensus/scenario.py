"""The ``python -m repro raft`` scenario: elections under fire.

One replicated volume (3 replicas) runs a continuous redo-commit
workload through the group-commit pipeline while a controller walks the
consensus plane through the failure classes a cloud-native database must
survive, in order:

* **Phase A — symmetric partition**: the elected leader is cut off from
  both followers.  The majority side elects a successor; the old leader
  keeps heartbeating into the void until the partition heals and a
  higher term fences it.
* **Phase B — leader crash**: the current leader is power-failed
  mid-workload, then rejoins through WAL replay as a FOLLOWER at its
  persisted term and repairs its Raft log before serving.
* **Phase C — asymmetric partition**: a one-way link cut (leader can
  reach the follower, the follower's replies vanish) — the classic
  disruptive-elections shape.
* **Phase D — crash at the worst moment**: a command is proposed
  directly to the leader and the leader is crashed while the
  AppendEntries is still in flight, so the entry's fate is decided by
  the election that follows, not by the proposer.

One node's election timer runs on a deliberately skewed clock
throughout.  The verdict is a list of violations: the four split-brain
invariants (one leader per term, no committed write lost, monotonic
terms, fenced leaders commit nothing), a redo-durability oracle (every
acknowledged LSN decodes from a quorum of replicas' durable redo), and
floors asserting the schedule really exercised what it claims
(elections, both partition shapes, two leader crashes).

Everything is derived from ``(seed, quick)``; the artifact is
byte-deterministic across double runs and CI diffs it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos.net import NetFaultPlan
from repro.common.errors import RaftError
from repro.common.rng import make_rng
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.consensus.group import RaftGroup
from repro.engine import Engine
from repro.storage.node import NodeConfig
from repro.storage.redo import RedoRecord, decode_records
from repro.storage.store import PolarStore


@dataclass
class RaftReport:
    """Outcome of one raft scenario run."""

    seed: int
    quick: bool
    commits_acked: int = 0
    commits_attempted: int = 0
    meta_acked: int = 0
    elections: int = 0
    term_bumps: int = 0
    fences: int = 0
    leader_crashes: int = 0
    sym_partitions: int = 0
    asym_partitions: int = 0
    client_retries: int = 0
    pipeline_retries: int = 0
    committed_len: int = 0
    final_leader: int = -1
    final_term: int = 0
    end_us: float = 0.0
    net_counts: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: The volume's MetricsRegistry (``--metrics``); not in the render.
    metrics: Optional[object] = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, object]:
        """Sim-deterministic summary (the CI double-run diff target)."""
        return {
            "seed": self.seed,
            "quick": self.quick,
            "commits_acked": self.commits_acked,
            "commits_attempted": self.commits_attempted,
            "meta_acked": self.meta_acked,
            "elections": self.elections,
            "term_bumps": self.term_bumps,
            "fences": self.fences,
            "leader_crashes": self.leader_crashes,
            "sym_partitions": self.sym_partitions,
            "asym_partitions": self.asym_partitions,
            "client_retries": self.client_retries,
            "pipeline_retries": self.pipeline_retries,
            "committed_len": self.committed_len,
            "final_leader": self.final_leader,
            "final_term": self.final_term,
            "end_us": round(self.end_us, 3),
            "net_counts": dict(self.net_counts),
            "violations": list(self.violations),
            "passed": self.passed,
        }

    def write_artifact(self, out_dir: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "raft_scenario.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(self.as_dict(), indent=2, sort_keys=True))
            fh.write("\n")
        return path

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        lines = [
            f"raft scenario [{mark}] seed={self.seed} "
            f"quick={self.quick} sim_end={self.end_us / 1e3:.1f}ms",
            f"  commits: {self.commits_acked}/{self.commits_attempted} "
            f"acked  meta: {self.meta_acked}  "
            f"retries: client={self.client_retries} "
            f"pipeline={self.pipeline_retries}",
            f"  elections: {self.elections}  term_bumps: {self.term_bumps}  "
            f"fences: {self.fences}  final leader: node "
            f"{self.final_leader} @ term {self.final_term}",
            f"  schedule: {self.sym_partitions} symmetric + "
            f"{self.asym_partitions} asymmetric partitions, "
            f"{self.leader_crashes} leader crashes",
            f"  net: {self.net_counts}",
        ]
        for v in self.violations:
            lines.append(f"  VIOLATION: {v}")
        return "\n".join(lines)


def run_raft(
    seed: int = 11,
    quick: bool = True,
    verbose: bool = False,
    volume_bytes: int = 64 * MiB,
) -> RaftReport:
    """Run the partition + leader-crash schedule; return the verdict."""
    report = RaftReport(seed=seed, quick=quick)
    pages = 16
    commits = 48 if quick else 200
    pace_us = 1_500.0
    say = print if verbose else (lambda *a, **k: None)

    store = PolarStore(NodeConfig(), volume_bytes=volume_bytes, seed=seed)
    now = 0.0
    for p in range(pages):
        now = store.write_page(
            now, p, bytes([p % 251]) * DB_PAGE_SIZE
        ).commit_us

    engine = Engine(start_us=now)
    plan = NetFaultPlan(seed)
    skew_rng = make_rng(seed, "raft-scenario", "skew")
    # Two sane clocks plus one fast one: the skewed node times out early
    # and starts (occasionally disruptive) elections.
    skews = [1.0, 1.0, 1.0]
    skews[skew_rng.randrange(3)] = 0.78
    group = RaftGroup(
        engine, 3, seed=seed, plan=plan, metrics=store.metrics,
        clock_skews=skews, name="raft",
    ).start()
    store.bind_engine(engine)
    store.attach_consensus(group)
    store.attach_net_plan(plan)
    report.metrics = store.metrics

    acked_lsns: List[int] = []
    stuck: List[str] = []

    def redo_client(client: int, n_commits: int):
        for k in range(n_commits):
            lsn = client * 100_000 + k
            records = [RedoRecord(
                lsn=lsn,
                page_no=(client * 7 + k) % pages,
                offset=0,
                data=bytes([client]) * 48,
            )]
            report.commits_attempted += 1
            committed = False
            for _attempt in range(12):
                try:
                    yield from store.write_redo_proc(records)
                except RaftError:
                    # The pipeline already retried for its whole
                    # deadline: leadership is still settling.  Back off
                    # a fixed pace (determinism: no extra rng) and
                    # re-submit the same records.
                    yield engine.timeout(4 * pace_us)
                    continue
                committed = True
                break
            if committed:
                acked_lsns.append(lsn)
                report.commits_acked += 1
            else:
                stuck.append(f"redo commit lsn {lsn} never succeeded")
            yield engine.timeout(pace_us)

    def meta_client(n_ops: int):
        for j in range(n_ops):
            yield from group.propose_proc(("cfg", j))
            report.meta_acked += 1
            yield engine.timeout(3 * pace_us)

    def controller():
        # Wait for the first election before making trouble.
        while group.leader_id is None:
            yield engine.timeout(500.0)
        say(f"[{engine.now_us / 1e3:9.2f}ms] leader: node "
            f"{group.leader_id} term {group.leader_term}")

        # Phase A: symmetric partition isolating the leader.
        lead = group.leader_id
        rest = [i for i in group.node_ids if i != lead]
        plan.partition([lead], rest, engine.now_us, engine.now_us + 28_000)
        report.sym_partitions += 1
        say(f"[{engine.now_us / 1e3:9.2f}ms] A: partition {{{lead}}} | "
            f"{rest} for 28ms")
        yield engine.timeout(40_000.0)
        say(f"[{engine.now_us / 1e3:9.2f}ms] A healed; leader: node "
            f"{group.leader_id} term {group.leader_term}")

        # Phase B: crash the leader, recover it through WAL replay.
        lead = store.group.leader
        store.fail_node(lead)
        report.leader_crashes += 1
        say(f"[{engine.now_us / 1e3:9.2f}ms] B: crashed leader {lead}")
        yield engine.timeout(24_000.0)
        store.recover_node(lead, engine.now_us)
        say(f"[{engine.now_us / 1e3:9.2f}ms] B: node {lead} rejoined; "
            f"leader: node {group.leader_id} term {group.leader_term}")
        yield engine.timeout(12_000.0)

        # Phase C: asymmetric partition — replies from one follower to
        # the leader vanish (one-way cut).
        lead = group.leader_id if group.leader_id is not None else 0
        victim = [i for i in group.node_ids if i != lead][0]
        plan.partition(
            [victim], [lead], engine.now_us, engine.now_us + 22_000,
            symmetric=False,
        )
        report.asym_partitions += 1
        say(f"[{engine.now_us / 1e3:9.2f}ms] C: one-way cut "
            f"{victim} -> {lead} for 22ms")
        yield engine.timeout(34_000.0)

        # Phase D: crash at the worst moment — propose straight to the
        # leader and kill it while the AppendEntries is on the wire.
        while group.leader_id is None:
            yield engine.timeout(500.0)
        lead = group.leader_id
        leader_node = group.nodes[lead]
        try:
            leader_node.propose(("doomed", report.leader_crashes))
        except RaftError:
            pass  # lost the race to an election: the crash still lands
        yield engine.timeout(9.0)  # < one-way RPC latency: msg in flight
        store.fail_node(lead)
        report.leader_crashes += 1
        say(f"[{engine.now_us / 1e3:9.2f}ms] D: crashed leader {lead} "
            f"with AppendEntries in flight")
        yield engine.timeout(24_000.0)
        store.recover_node(lead, engine.now_us)
        say(f"[{engine.now_us / 1e3:9.2f}ms] D: node {lead} rejoined; "
            f"leader: node {group.leader_id} term {group.leader_term}")

    procs = [
        engine.spawn(redo_client(c, commits // 2), name=f"redo-{c}")
        for c in range(2)
    ]
    procs.append(
        engine.spawn(meta_client(max(6, commits // 8)), name="meta")
    )
    procs.append(engine.spawn(controller(), name="controller"))
    engine.run_until_complete(procs)
    group.stop()

    # Settle: heal everything, resync stale replicas, checkpoint.
    for i in range(len(store.nodes)):
        if not store.group.alive[i]:
            store.recover_node(i, engine.now_us)
    end = store.resync_missed(engine.now_us)
    end = max(end, store.checkpoint(end))
    engine.advance_to(end)

    report.elections = group.elections_won
    report.term_bumps = group.term_bumps
    report.fences = group.fences
    report.client_retries = group.client_retries
    report.pipeline_retries = int(
        store.metrics.counter("raft.retries").value
    )
    report.committed_len = len(group.committed)
    report.final_leader = (
        group.leader_id if group.leader_id is not None else -1
    )
    report.final_term = group.leader_term
    report.end_us = engine.now_us
    report.net_counts = plan.counts()

    violations = group.tracker.check(group.committed_commands())
    # Redo durability: every acked LSN must decode from a quorum.
    violations += stuck
    per_node: List[set] = []
    for node in store.nodes:
        lsns = set()
        for blob in node.durable_redo_blobs:
            lsns.update(r.lsn for r in decode_records(blob))
        per_node.append(lsns)
    for lsn in acked_lsns:
        copies = sum(1 for lsns in per_node if lsn in lsns)
        if copies < store.group.quorum:
            violations.append(
                f"acked lsn {lsn} durable on only {copies}/"
                f"{len(store.nodes)} replicas"
            )
    floors = (
        ("raft.elections", report.elections, 3),
        ("raft.sym_partitions", report.sym_partitions, 1),
        ("raft.asym_partitions", report.asym_partitions, 1),
        ("raft.leader_crashes", report.leader_crashes, 2),
        ("raft.commits_acked", report.commits_acked, commits),
    )
    for name, value, floor in floors:
        if value < floor:
            violations.append(
                f"{name}: value {value:g} breaches {name} >= {floor:g}"
            )
    report.violations = violations
    return report


__all__ = ["RaftReport", "run_raft"]
