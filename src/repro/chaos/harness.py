"""The chaos harness: a workload under a fault schedule, with invariants.

``run_chaos`` drives a seeded read/write/redo workload against a
3-replica :class:`~repro.storage.store.PolarStore` while a
:class:`~repro.chaos.plan.FaultPlan` injects data faults underneath it,
one follower's whole data device fails for a window, and another
follower is crashed and rejoined through real WAL-replay recovery.  An
oracle (a plain dict of every committed page image) checks the
invariants the paper's reliability story depends on:

I1  every committed write reads back byte-exact, throughout;
I2  detected corruption equals repaired corruption, per fault kind
    (nothing repairable is left broken, nothing is double-counted);
I3  nothing was unrepairable (the schedule never corrupts all replicas
    of a page at once, so a good copy always exists);
I4  losing quorum raises ``ReplicationError``; writes resume after rejoin;
I5  after recovery + final scrub, *every alive replica independently*
    serves every page byte-exact (convergence);
I6  the schedule actually exercised the machinery (≥ ``min_faults``
    data faults injected, the follower crashed and rejoined, the WAL
    replayed).

Every event is also visible as ``chaos.*`` counters in the volume's
metrics registry and as trace spans, so the observability layer (PR 1)
tells the same story the report does.  The report's verdict is the list
of violated invariants, in the order above.  With a flight recorder
active (``repro events chaos``) the crash, device-fail window, quorum
drill, and every injected fault land on the ``fault`` channel with
simulated timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api.config import NodeConfig
from repro.chaos.plan import DATA_FAULT_KINDS, FaultKind, FaultPlan, FaultRule
from repro.common.errors import ReplicationError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.obs.events import recorder_active
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore


@dataclass
class ChaosReport:
    """Outcome of one harness run."""

    seed: int
    ops: int
    writes: int = 0
    reads: int = 0
    redo_commits: int = 0
    scrubs: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    detected: Dict[str, int] = field(default_factory=dict)
    repaired: Dict[str, int] = field(default_factory=dict)
    unrepairable: Dict[str, int] = field(default_factory=dict)
    hedged_reads: int = 0
    wal_replays: int = 0
    resynced_pages: int = 0
    quorum_errors: int = 0
    violations: List[str] = field(default_factory=list)
    #: The volume's MetricsRegistry, for exporting the full snapshot
    #: (``python -m repro chaos --metrics``).  Not part of the render.
    metrics: Optional[object] = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def injected_data_faults(self) -> int:
        return sum(
            n for kind, n in self.injected.items()
            if FaultKind(kind) in DATA_FAULT_KINDS
        )

    def render(self) -> str:
        lines = [
            f"chaos run: seed={self.seed} ops={self.ops} "
            f"writes={self.writes} reads={self.reads} "
            f"redo_commits={self.redo_commits} scrubs={self.scrubs}",
            f"injected  : {_fmt(self.injected)} "
            f"(data faults: {self.injected_data_faults})",
            f"detected  : {_fmt(self.detected)}",
            f"repaired  : {_fmt(self.repaired)}",
            f"unrepaired: {_fmt(self.unrepairable)}",
            f"hedged_reads={self.hedged_reads} "
            f"wal_replays={self.wal_replays} "
            f"resynced_pages={self.resynced_pages} "
            f"quorum_errors={self.quorum_errors}",
        ]
        if self.violations:
            lines.append(f"INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("all invariants held")
        return "\n".join(lines)


def _fmt(counts: Dict[str, int]) -> str:
    if not counts:
        return "none"
    return " ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def default_plan(seed: int, leader: str = "node-0") -> FaultPlan:
    """The standard schedule: every data-fault kind plus slow-I/O.

    Data faults are scoped to the *leader's* data device so that every
    corruption is guaranteed a healthy follower copy — the harness can
    then assert full repairability (I3) deterministically.  Faults
    landing on two replicas of the same write would make repairability
    probabilistic, which is a different (weaker) test.  Pass the actual
    leader node name — ``PolarStore`` numbers nodes with a process-wide
    counter, so a second volume in the same process is *not* named
    ``node-0``.  Probabilities are tuned so a ~700-op run injects well
    over 100 data faults.  The ``DEVICE_FAIL`` rule starts dormant
    (``until_us=0``); the harness opens its window mid-run at a
    simulated time it learns as it goes.
    """
    plan = FaultPlan(seed=seed)
    scope = f"{leader}:data"
    plan.add(FaultRule(FaultKind.BIT_FLIP, probability=0.130, scope=scope))
    plan.add(FaultRule(FaultKind.TORN_WRITE, probability=0.060, scope=scope))
    plan.add(
        FaultRule(FaultKind.DROPPED_WRITE, probability=0.060, scope=scope)
    )
    plan.add(
        FaultRule(
            FaultKind.MISDIRECTED_WRITE, probability=0.030, scope=scope
        )
    )
    plan.add(
        FaultRule(FaultKind.SLOW_IO, probability=0.012, slow_us=9000.0)
    )
    plan.add(
        FaultRule(FaultKind.DEVICE_FAIL, from_us=0.0, until_us=0.0)
    )
    return plan


def run_chaos(
    seed: int = 42,
    ops: int = 700,
    pages: int = 64,
    scrub_every: int = 150,
    verbose: bool = False,
    min_data_faults: int = 100,
) -> ChaosReport:
    """Run the chaos schedule and return the invariant report.

    ``min_data_faults`` is the I6 floor on injected data faults; scale
    it down together with ``ops`` for quick smoke runs (the default
    matches the full 700-op schedule).
    """
    rng = np.random.default_rng(seed)
    store = PolarStore(NodeConfig(), volume_bytes=64 * MiB, seed=seed)
    plan = default_plan(seed, leader=store.leader.name)
    plan.attach_to_store(store)
    fail_rules = [
        r for r in plan.rules if r.kind is FaultKind.DEVICE_FAIL
    ]

    report = ChaosReport(seed=seed, ops=ops)
    oracle: Dict[int, bytearray] = {}
    lsn = [0]
    now = 0.0
    #: Runtime-observed violations (I1 read-backs, the I4 quorum probe,
    #: the final I1/I4/I5 sweeps), in chronological order; they lead the
    #: report's violation list.
    observed: List[str] = []

    def say(msg: str) -> None:
        if verbose:
            print(f"[{now / 1e3:9.1f} ms] {msg}")

    def do_write(page_no: int) -> None:
        nonlocal now
        if float(rng.random()) < 0.7:
            data = rng.integers(0, 256, DB_PAGE_SIZE, dtype=np.uint8)
        else:  # compressible page: long runs + a random stripe
            data = np.zeros(DB_PAGE_SIZE, dtype=np.uint8)
            data[:1024] = rng.integers(0, 256, 1024, dtype=np.uint8)
        payload = data.tobytes()
        # The fresh image supersedes all redo issued so far (its LSN
        # high-water mark is the latest assigned LSN).
        commit = store.write_page(now, page_no, payload, applied_lsn=lsn[0])
        now = commit.commit_us
        oracle[page_no] = bytearray(payload)
        report.writes += 1

    def do_redo(page_no: int) -> None:
        nonlocal now
        if page_no not in oracle:
            do_write(page_no)
        records = []
        for _ in range(int(rng.integers(1, 4))):
            offset = int(rng.integers(0, DB_PAGE_SIZE - 128))
            blob = rng.integers(0, 256, 96, dtype=np.uint8).tobytes()
            lsn[0] += 1
            records.append(RedoRecord(lsn[0], page_no, offset, blob))
            oracle[page_no][offset : offset + len(blob)] = blob
        now = store.write_redo(now, records)
        report.redo_commits += 1

    def do_read(page_no: int) -> None:
        nonlocal now
        result = store.read_page(now, page_no)
        now = result.done_us
        report.reads += 1
        if bytes(result.data) != bytes(oracle[page_no]):
            observed.append(
                f"I1: page {page_no} read mismatch at op {op}"
            )

    def do_scrub() -> None:
        nonlocal now
        now = store.scrub(now)
        report.scrubs += 1
        say("scrub complete")

    crash_at = int(ops * 0.30)
    rejoin_at = int(ops * 0.55)
    device_fail_at = int(ops * 0.65)
    quorum_at = int(ops * 0.88)
    crashed = False

    rec = recorder_active()
    for op in range(ops):
        if op == crash_at:
            store.fail_node(2)
            crashed = True
            say("follower node 2 crashed (process down, RAM lost)")
            if rec is not None:
                rec.emit(now, "fault", "node_crash",
                         node=store.nodes[2].name, op=op)
        if op == rejoin_at:
            now = store.recover_node(2, now)
            crashed = False
            say("follower node 2 rejoined via WAL replay + resync")
        if op == device_fail_at:
            # Open the whole-device failure window on follower 1's data
            # device for ~40 simulated ms.
            for rule in fail_rules:
                rule.scope = f"{store.nodes[1].name}:data"
                rule.from_us = now
                rule.until_us = now + 40_000.0
            say("node 1 data device failing for 40 ms")
            if rec is not None:
                rec.emit(now, "fault", "device_fail_window",
                         node=store.nodes[1].name, window_us=40_000.0)
        if op == quorum_at:
            # Close any open device-failure window first so the rejoin
            # below is not fighting a dead device.
            for rule in fail_rules:
                rule.until_us = min(rule.until_us, now)
            if rec is not None:
                rec.emit(now, "fault", "quorum_drill", op=op)
            _check_quorum_loss(store, report, observed, now,
                               probe_page=pages + 7)
            # Recover the most-up-to-date replica first: node 2 has been
            # healthy since its rejoin, so it holds the only good copy of
            # pages node 1 missed during its device-failure window.
            now = store.recover_node(2, now)
            now = store.recover_node(1, now)
            say("both followers rejoined after quorum loss drill")

        roll = float(rng.random())
        page_no = int(rng.integers(0, pages))
        if roll < 0.45 or not oracle:
            do_write(page_no)
        elif roll < 0.65:
            do_redo(page_no)
        else:
            if page_no not in oracle:
                page_no = sorted(oracle)[
                    int(rng.integers(0, len(oracle)))
                ]
            do_read(page_no)
        if op > 0 and op % scrub_every == 0:
            do_scrub()

    # Drain: stop injecting, consolidate all pending redo, resync
    # stragglers, final scrub — then assert convergence.
    plan.quiesce(now)
    say("fault injection quiesced")
    now = store.resync_missed(now)
    now = store.checkpoint(now)
    do_scrub()

    # I1 final sweep through the replicated read path.
    for page_no in sorted(oracle):
        result = store.read_page(now, page_no)
        now = result.done_us
        if bytes(result.data) != bytes(oracle[page_no]):
            observed.append(
                f"I1: page {page_no} mismatch in final sweep"
            )

    # I5 convergence: every alive replica serves every page byte-exact.
    for i, node in enumerate(store.nodes):
        if not store.group.alive[i]:
            observed.append(f"I4: node {i} still down at end")
            continue
        for page_no in sorted(oracle):
            result = node.read_page(now, page_no)
            now = result.done_us
            if bytes(result.data) != bytes(oracle[page_no]):
                observed.append(
                    f"I5: replica {i} page {page_no} diverged"
                )

    report.metrics = store.metrics
    _collect_counters(store, plan, report)
    report.violations = _invariant_violations(
        report, observed, crashed, min_data_faults
    )
    return report


def _invariant_violations(
    report: ChaosReport,
    observed: List[str],
    still_crashed: bool,
    min_faults: int,
) -> List[str]:
    """I1–I6 in their historical order: the run's observed I1/I4/I5
    breaches, then repair accounting (I2), repairability (I3), the
    rejoin (I4) and the three I6 schedule floors."""
    out = list(observed)
    for kind in sorted(set(report.detected) | set(report.repaired)):
        detected = report.detected.get(kind, 0)
        repaired = report.repaired.get(kind, 0)
        unrepairable = report.unrepairable.get(kind, 0)
        if detected != repaired + unrepairable:
            out.append(
                f"I2: kind {kind}: detected={detected} != "
                f"repaired={repaired} + unrepairable={unrepairable}"
            )
    unrepairable = sum(report.unrepairable.values())
    if unrepairable:
        out.append(f"I3: {unrepairable} corruptions had no healthy copy")
    if still_crashed:
        out.append("I4: follower never rejoined")
    if report.injected_data_faults < min_faults:
        out.append(
            f"I6: only {report.injected_data_faults} data faults injected "
            f"(schedule requires >= {min_faults})"
        )
    if report.wal_replays < 1:
        out.append("I6: recovery never replayed a WAL")
    if report.quorum_errors < 1:
        out.append("I6: quorum loss was never exercised")
    return out


def _check_quorum_loss(
    store: PolarStore,
    report: ChaosReport,
    observed: List[str],
    now: float,
    probe_page: int,
) -> None:
    """I4: with both followers down, a write must raise ReplicationError.

    ``probe_page`` lies outside the workload's page range: the leader
    mutates local state before discovering the lost quorum, and the
    un-acknowledged write must not shadow an oracle-tracked page.
    """
    store.fail_node(1)
    store.fail_node(2)
    try:
        store.write_page(now, probe_page, b"\x00" * DB_PAGE_SIZE)
    except ReplicationError:
        report.quorum_errors += 1
    else:
        observed.append(
            "I4: write committed without a quorum (no ReplicationError)"
        )


def _collect_counters(
    store: PolarStore, plan: FaultPlan, report: ChaosReport
) -> None:
    report.injected = dict(plan.injected)
    for inst in store.metrics.instruments():
        if inst.kind != "counter" or not inst.name.startswith("chaos."):
            continue
        value = int(inst.value)
        kind = inst.labels.get("kind", "")
        if inst.name == "chaos.detected":
            report.detected[kind] = report.detected.get(kind, 0) + value
        elif inst.name == "chaos.repaired":
            report.repaired[kind] = report.repaired.get(kind, 0) + value
        elif inst.name == "chaos.unrepairable":
            report.unrepairable[kind] = (
                report.unrepairable.get(kind, 0) + value
            )
        elif inst.name == "chaos.hedged_reads":
            report.hedged_reads += value
        elif inst.name == "chaos.wal_replays":
            report.wal_replays += value
        elif inst.name == "chaos.resynced_pages":
            report.resynced_pages += value
