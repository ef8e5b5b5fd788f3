"""The PolarStore volume: replicated shared storage behind one facade.

Implements the Figure 4 workflow end-to-end: the leader compresses a page
into 4 KB-aligned blocks (software layer), replicates the compressed blocks
to two followers, all three persist (device write + WAL), and the write
commits at the majority.  Redo writes follow the same replication rule but
take the Opt#1 path.

The three write modes of §3.2.3 are exposed via :class:`CompressionMode`:

* ``NORMAL`` — default dual-layer compression (page-aligned I/O only;
  non-aligned writes silently fall back to ``NONE`` as in the paper);
* ``NONE``  — bypass software compression;
* ``HEAVY`` — archive an existing page range as one high-ratio segment.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.common.clock import SimClock
from repro.common.errors import (
    DeviceUnavailableError,
    PageCorruptionError,
    ReproError,
)
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.csd.device import BlockDevice, PlainSSD, PolarCSD
from repro.csd.specs import (
    DeviceSpec,
    OPTANE_P5800X,
    POLARCSD2,
)
from repro.obs.events import recorder_active
from repro.obs.metrics import MetricsRegistry
from repro.storage.node import NodeConfig, PreparedWrite, ReadResult, StorageNode
from repro.storage.replication import NetworkModel, ReplicationGroup
from repro.storage.redo import RedoRecord, encode_records

_node_counter = itertools.count()

#: Replicas per volume: one leader and two followers (Figure 4).
REPLICAS = 3
#: Drives a storage server stripes its data device across.
DATA_PARALLELISM = 8


class CompressionMode(enum.Enum):
    NORMAL = "normal"
    NONE = "none"
    HEAVY = "heavy"


@dataclass(frozen=True)
class CommittedWrite:
    """A replicated page write."""

    commit_us: float
    prepared: PreparedWrite


def build_node(
    name: str,
    config: NodeConfig,
    data_spec: DeviceSpec = POLARCSD2,
    perf_spec: DeviceSpec = OPTANE_P5800X,
    volume_bytes: int = 256 * MiB,
    physical_bytes: Optional[int] = None,
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
) -> StorageNode:
    """Construct a storage node with simulation-sized devices.

    ``volume_bytes`` replaces the spec's multi-TB logical capacity so the
    allocator and FTL operate at laptop scale; latency constants are
    untouched.  ``DATA_PARALLELISM`` models the 10-12 drives a storage server
    actually stripes across (the paper's nodes are never single-disk).
    """
    if physical_bytes is None:
        # Preserve the spec's logical:physical provisioning ratio.
        ratio = data_spec.physical_capacity / data_spec.logical_capacity
        physical_bytes = max(8 * MiB, int(volume_bytes * ratio * 2))
    sized = dataclasses.replace(
        data_spec,
        logical_capacity=volume_bytes,
        physical_capacity=physical_bytes,
    )
    if metrics is None:
        metrics = MetricsRegistry()
    if sized.has_compression:
        data_device: BlockDevice = PolarCSD(
            sized, seed=seed,
            block_capacity=1 * MiB, parallelism=DATA_PARALLELISM,
            metrics=metrics, metric_labels={"node": name, "role": "data"},
        )
    else:
        data_device = PlainSSD(
            sized, seed=seed, parallelism=DATA_PARALLELISM,
            metrics=metrics, metric_labels={"node": name, "role": "data"},
        )
    perf_sized = dataclasses.replace(
        perf_spec, logical_capacity=max(volume_bytes // 4, 8 * MiB)
    )
    perf_device = PlainSSD(
        perf_sized, seed=seed + 1, parallelism=2,
        metrics=metrics, metric_labels={"node": name, "role": "perf"},
    )
    return StorageNode(name, config, data_device, perf_device, metrics=metrics)


class PolarStore:
    """A replicated volume: one leader node plus ``replicas - 1`` followers.

    ``nodes`` are the replicas; ``group`` (a :class:`ReplicationGroup`) is
    the only record of which of them are alive, stale or leading.  Every
    replicated write goes through one quorum fan-out (:meth:`_replicate`),
    every maintenance pass over the replicas through one
    retry-with-repair loop (:meth:`_on_each_replica`).
    """

    def __init__(
        self,
        config: Optional[NodeConfig] = None,
        data_spec: DeviceSpec = POLARCSD2,
        perf_spec: DeviceSpec = OPTANE_P5800X,
        volume_bytes: int = 256 * MiB,
        seed: int = 0,
        physical_bytes: Optional[int] = None,
    ) -> None:
        #: Replica-set state and the commit rule (see class docstring).
        self.group = ReplicationGroup(REPLICAS)
        self.config = config if config is not None else NodeConfig()
        self.network = NetworkModel()
        self.seed = seed
        #: One registry spans the whole volume: every node, device, FTL,
        #: and selector instrument lands here, and its tracer carries span
        #: context through the write/read paths.
        self.metrics = MetricsRegistry()
        base = next(_node_counter) * 100
        self.nodes: List[StorageNode] = [
            build_node(
                f"node-{base + i}",
                self.config,
                data_spec,
                perf_spec,
                volume_bytes,
                physical_bytes=physical_bytes,
                seed=seed + i * 7,
                metrics=self.metrics,
            )
            for i in range(REPLICAS)
        ]
        #: Chaos fault plan (when armed) — its ledger attributes detected
        #: corruption back to the injected fault kind.
        self.chaos_plan = None
        #: Volume-time high-water mark: every commit/read completion
        #: advances it, so control-plane operations (recovery, resync)
        #: can never be timestamped before work that already happened.
        self.clock = SimClock()
        #: Shared event kernel + group-commit pipeline (engine mode).
        self._engine = None
        self._pipeline = None
        self._defer_gc = False
        #: Leader reads slower than this are hedged to a follower.
        self.hedge_after_us = 4000.0
        # Commit-latency distributions, bounded (the seed kept raw
        # unbounded lists here); list(...)/len()/clear() still work.
        self.redo_commit_stats = self.metrics.series(
            "storage.redo_commit_us"
        )
        self.page_write_commit_stats = self.metrics.series(
            "storage.page_write_commit_us"
        )
        self.metrics.gauge_fn(
            "storage.compression_ratio", self.compression_ratio
        )
        self.metrics.gauge_fn(
            "storage.logical_used_bytes",
            lambda: self.leader.logical_used_bytes,
        )
        self.metrics.gauge_fn(
            "storage.physical_used_bytes",
            lambda: self.leader.physical_used_bytes,
        )

    def bind_engine(self, engine, defer_gc: bool = False) -> None:
        """Attach the volume to a shared discrete-event kernel.

        Every node's device queues become engine-native (concurrent
        requests really wait FIFO), and redo commits gain a volume-level
        group-commit pipeline with pipelined replica fan-out
        (:meth:`write_redo_proc`): commits that arrive while a flush is
        in flight share the next one.  ``defer_gc`` moves FTL relocation
        cost to each data device's background GC process.
        """
        from repro.storage.commit_pipeline import GroupCommitPipeline

        self._engine = engine
        self._defer_gc = defer_gc
        for node in self.nodes:
            node.bind_engine(engine, defer_gc=defer_gc)
        self._pipeline = GroupCommitPipeline(self, engine)
        self.clock.advance_to(engine.now_us)

    @property
    def leader(self) -> StorageNode:
        return self.nodes[self.group.leader]

    def attach_chaos(self, plan) -> None:
        """Register the fault plan whose ledger attributes corruption."""
        self.chaos_plan = plan

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.group.size:
            raise ReproError(
                f"no replica {index}: the volume has {self.group.size}"
            )

    def _elect_successor(self, at_us: float) -> None:
        """Hand leadership to :meth:`ReplicationGroup.successor`; with no
        replica alive the leader stays down until one recovers."""
        group = self.group
        winner = group.successor([n.durable_lsn for n in self.nodes])
        if winner is None:
            return
        if winner != group.leader:
            self.metrics.counter("storage.leader_changes").add(1)
        group.elect(winner)
        rec = recorder_active()
        if rec is not None:
            rec.emit(
                at_us, "election", "store_leader",
                node=winner, term=group.epoch,
            )

    def fail_node(self, index: int) -> None:
        """Crash a replica (loses all RAM state).

        Crashing the leader elects its successor at once: the live
        replica with the highest durable redo LSN, ties to the lowest
        index.  The new epoch fences a pipelined commit in flight, which
        retries on the new leader.  With no replica left alive the
        leader stays down and writes raise :class:`ReplicationError` until the
        first :meth:`recover_node` elects.
        """
        self._check_index(index)
        if not self.group.alive[index]:
            raise ReproError(f"node {index} is already failed")
        self.group.alive[index] = False
        if index == self.group.leader:
            self._elect_successor(self.clock.now_us)

    def recover_node(self, index: int, now_us: Optional[float] = None) -> float:
        """Rejoin a failed replica through real crash recovery.

        The node's in-memory state (allocator, index, caches, redo cache)
        is *rebuilt from its WAL* via :func:`repro.storage.recovery
        .recover_node` — trusting the pre-crash in-memory objects would
        hide exactly the class of bugs recovery exists to catch.  Pages
        written while the replica was down are then resynced from the
        leader.  Returns the simulated completion time.

        Time flows from the volume clock: recovery happens *now*, never
        at a fresh ``0.0``.  An explicit ``now_us`` can only move time
        forward — a stale (or defaulted) timestamp cannot schedule
        recovery I/O before commits that already completed.
        """
        self._check_index(index)
        if self.group.alive[index]:
            raise ReproError(f"node {index} is not failed")
        now = self.clock.now_us
        if now_us is not None:
            now = max(now, now_us)
        from repro.storage.recovery import recover_node as _wal_recover

        rebuilt = _wal_recover(self.nodes[index], metrics=self.metrics)
        if self._engine is not None:
            rebuilt.bind_engine(self._engine, defer_gc=self._defer_gc)
        self.nodes[index] = rebuilt
        self.group.alive[index] = True
        if not self.group.alive[self.group.leader]:
            self._elect_successor(now)
        self.metrics.counter("chaos.wal_replays", node=rebuilt.name).add(1)
        rec = recorder_active()
        if rec is not None:
            rec.emit(now, "fault", "wal_replay", node=rebuilt.name)
        done = self._resync_node(index, now)
        self.clock.advance_to(done)
        if rec is not None:
            rec.emit(
                done, "fault", "node_rejoined",
                node=rebuilt.name, resync_us=round(done - now, 3),
            )
        return done

    def _resync_node(self, index: int, now_us: float) -> float:
        """Copy every missed page from a healthy replica onto ``index``.

        Pages stay in ``group.missed[index]`` until their copy lands, so
        the read path never mistakes this node's stale-but-checksummed
        copy for a good repair source mid-resync.  The good image comes
        from the *verified* store read (the source copy itself may be
        bit-rot damaged and need repair first).
        """
        node = self.nodes[index]
        group = self.group
        missed = group.missed[index]
        now = now_us
        with self.metrics.tracer.suppressed():
            for page_no in sorted(missed):
                # Whether the page exists, and its LSN high-water mark,
                # come from a peer with a current copy, leader first —
                # never from ``index`` itself, which may be the leader.
                source = next(
                    (j for j in [group.leader] + group.followers()
                     if j != index and group.current(j, page_no)),
                    None,
                )
                if source is None:
                    continue  # no current copy anywhere yet; stays queued
                entry = self.nodes[source].index.get(page_no)
                if entry is None:
                    missed.discard(page_no)
                    continue
                try:
                    good = self.read_page(now, page_no)
                except PageCorruptionError:
                    continue  # no healthy copy right now; stays queued
                try:
                    result = node.repair_page(
                        good.done_us, page_no, good.data,
                        applied_lsn=entry.applied_lsn,
                    )
                except DeviceUnavailableError:
                    break  # still down: the rest stays queued for later
                missed.discard(page_no)
                now = result.done_us
                self.metrics.counter(
                    "chaos.resynced_pages", node=node.name
                ).add(1)
        return now

    def resync_missed(self, now_us: float) -> float:
        """Resync stale pages on replicas that stayed up through a device
        outage (their writes were dropped, not their process) — the
        leader too, which a failover may have handed such a replica."""
        now = now_us
        group = self.group
        for i in range(group.size):
            if group.alive[i] and group.missed[i]:
                now = max(now, self._resync_node(i, now_us))
        return now

    # ------------------------------------------------------------------ #
    # Write path                                                          #
    # ------------------------------------------------------------------ #

    def write_page(
        self,
        start_us: float,
        page_no: int,
        data: bytes,
        mode: CompressionMode = CompressionMode.NORMAL,
        applied_lsn: int = 0,
    ) -> CommittedWrite:
        """Figure 4 steps 1–4: compress, replicate, persist, commit.

        ``applied_lsn`` is the page's LSN high-water mark: redo at or
        below it is already folded into ``data`` and must never be
        re-applied over this image.
        """
        if mode is CompressionMode.HEAVY:
            raise ReproError("use archive_range() for heavy compression")
        tracer = self.metrics.tracer
        root = tracer.begin("storage.page_write", start_us, layer="storage")
        sp = tracer.begin("compression.prepare", start_us, layer="compression")
        if mode is CompressionMode.NONE or len(data) != DB_PAGE_SIZE:
            # Non-page-aligned I/O automatically reverts to no-compression.
            prepared = PreparedWrite.raw(data)
        else:
            prepared = self.leader.prepare_page(page_no, data)

        after_compress = start_us + prepared.cpu_us
        tracer.end(sp, after_compress)
        rec = recorder_active()
        if rec is not None and prepared.codec_evaluated:
            # The selector has no clock; the codec decision is stamped
            # here, where the compression phase's end time is known.
            rec.emit(
                after_compress, "codec", "selected",
                page=page_no,
                codec=prepared.algorithm or "none",
                payload_bytes=len(prepared.payload),
                cpu_us=round(prepared.cpu_us, 3),
            )
        # A full fresh copy supersedes any older missed version: a
        # follower it lands on is current for the page again, and may
        # serve as a repair source for it.
        commit = self._replicate(
            root, after_compress, (page_no,), len(prepared.payload),
            lambda node, at_us: node.write_page_local(
                at_us, page_no, prepared, applied_lsn=applied_lsn
            ).done_us,
            full_copy=True,
        )
        self.page_write_commit_stats.append(commit - start_us)
        if rec is not None:
            rec.emit(
                commit, "io", "page_write",
                page=page_no,
                blocks=prepared.n_blocks,
                codec=prepared.algorithm or "none",
                latency_us=round(commit - start_us, 3),
            )
        return CommittedWrite(commit, prepared)

    def _replicate(
        self,
        root,
        start_us: float,
        pages: Sequence[int],
        wire_bytes: int,
        persist: Callable[[StorageNode, float], float],
        full_copy: bool = False,
    ) -> float:
        """The one synchronous quorum write (Figure 4 steps 2-4).

        ``persist(node, at_us)`` applies the write to one replica and
        returns its completion time: the leader at ``start_us``, each
        live follower one RPC of ``wire_bytes`` later.  A follower that
        is dead or failing goes stale for ``pages``.
        Closes ``root`` (the caller's open span) at the commit time it
        returns — or abandons it when the write is refused or fails, so
        the ambient span stack is left as the caller found it.
        """
        group = self.group
        tracer = self.metrics.tracer
        try:
            group.require_quorum()
            leader_done = persist(self.leader, start_us)
            send = self.network.rpc_us(wire_bytes)
            ack = self.network.rpc_us(64)
            acks: List[float] = []
            # Followers run concurrently with the leader; only the
            # critical path is attributed, so their spans are suppressed.
            with tracer.suppressed():
                for i in group.followers():
                    landed = group.alive[i]
                    if landed:
                        try:
                            acks.append(
                                persist(self.nodes[i], start_us + send) + ack
                            )
                        except DeviceUnavailableError:
                            landed = False
                    if not landed:
                        group.missed[i].update(pages)
                    elif full_copy:
                        group.missed[i].difference_update(pages)
            commit = group.commit_time(leader_done, acks)
        except Exception:
            tracer.abandon(root)
            raise
        sp = tracer.begin("net.quorum_wait", leader_done, layer="net")
        tracer.end(sp, commit)
        tracer.end(root, commit)
        self.clock.advance_to(commit)
        return commit

    def write_partial(
        self, start_us: float, page_no: int, offset: int, data: bytes
    ) -> float:
        """Replicated non-page-aligned write (no-compression mode rule:
        decompress existing, splice, store uncompressed)."""
        root = self.metrics.tracer.begin(
            "storage.partial_write", start_us, layer="storage"
        )
        return self._replicate(
            root, start_us, (page_no,), len(data),
            lambda node, at_us: node.write_partial(
                at_us, page_no, offset, data
            ).done_us,
        )

    def write_redo(
        self, start_us: float, records: Sequence[RedoRecord]
    ) -> float:
        """Replicated redo persistence (the transaction-commit path)."""
        blob = encode_records(records)
        root = self.metrics.tracer.begin(
            "storage.redo_commit", start_us, layer="storage"
        )
        commit = self._replicate(
            root, start_us, [r.page_no for r in records], len(blob),
            lambda node, at_us: node.persist_redo(at_us, blob),
        )
        self._after_redo_commit(commit, records)
        self.redo_commit_stats.append(commit - start_us)
        rec = recorder_active()
        if rec is not None:
            rec.emit(
                commit, "io", "redo_commit",
                records=len(records),
                bytes=len(blob),
                latency_us=round(commit - start_us, 3),
            )
        return commit

    def _on_each_replica(
        self,
        at_us: float,
        attempts: int,
        op: Callable[[StorageNode], float],
        pages: Sequence[int] = (),
    ) -> float:
        """The one per-replica retry-with-repair loop: run ``op(node)``
        on every alive replica; returns the latest completion time.

        An ``op`` that trips over a corrupt page gets the page repaired
        from a healthy replica and is retried, ``attempts`` times at most.
        A dead replica, or a follower whose device is down, goes stale for
        ``pages`` instead; the elected leader must stay durable, so its
        device failing propagates.  Spans are suppressed: this is
        background work overlapping the committed request.
        """
        group = self.group
        done = at_us
        with self.metrics.tracer.suppressed():
            for i, node in enumerate(self.nodes):
                if not group.alive[i]:
                    group.missed[i].update(pages)
                    continue
                for _ in range(attempts):
                    try:
                        done = max(done, op(node))
                        break
                    except DeviceUnavailableError:
                        if i == group.leader:
                            raise
                        group.missed[i].update(pages)
                        break
                    except PageCorruptionError as err:
                        self._read_with_repair(at_us, err.page_no, i, err)
        return done

    def _after_redo_commit(
        self, commit: float, records: Sequence[RedoRecord]
    ) -> None:
        """Post-commit bookkeeping shared by the synchronous path and the
        group-commit pipeline: records enter every replica's redo cache
        for later consolidation.  Cache spills here may consolidate
        pages; duplicate records from a retry after a repair are
        deduplicated by LSN at apply time."""
        self._on_each_replica(
            commit, 16,
            lambda node: node.add_redo(commit, list(records)),
            pages=[r.page_no for r in records],
        )
        self.clock.advance_to(commit)

    def write_redo_proc(self, records: Sequence[RedoRecord]):
        """Engine process: redo commit through the group-commit pipeline.

        Commits arriving while a flush is in flight coalesce into the
        next performance-layer write; the replica fan-out inside each
        flush is pipelined (the leader's device write overlaps follower
        RTTs).  Requires :meth:`bind_engine`.  Returns the commit time.
        """
        if self._pipeline is None:
            raise ReproError(
                "write_redo_proc requires bind_engine() on this volume"
            )
        commit = yield from self._pipeline.commit_proc(records)
        return commit

    def archive_range(self, start_us: float, page_nos: List[int]) -> float:
        """Heavy-compress a page range on every replica."""
        return self._on_each_replica(
            start_us, 64,
            lambda node: node.archive_range(start_us, list(page_nos)),
            pages=page_nos,
        )

    def checkpoint(self, start_us: float) -> float:
        """Consolidate every pending redo page on all alive replicas (a
        follower whose device is down keeps its redo cached for later)."""
        return self._on_each_replica(
            start_us, 256,
            lambda node: node.consolidate_pending(start_us),
        )

    def drop_page(self, page_no: int) -> None:
        """Free one page on every alive replica (TRIM the space; the WAL
        records the removal so recovery agrees).  A dead replica no
        longer owes a resync for it."""
        for i, node in enumerate(self.nodes):
            if self.group.alive[i]:
                node.drop_page(page_no)
            else:
                self.group.missed[i].discard(page_no)

    # ------------------------------------------------------------------ #
    # Read path                                                           #
    # ------------------------------------------------------------------ #

    def read_page(self, start_us: float, page_no: int) -> ReadResult:
        """Read with end-to-end verification (leader first).

        Every page copy carries a CRC-32 computed above the device, so a
        bit flip, torn write, dropped write, or misdirected write anywhere
        below surfaces here as :class:`PageCorruptionError`.  On detection
        the read transparently falls over to a healthy replica, rewrites
        the bad copies from the good image, and counts the repair.  Reads
        slower than ``hedge_after_us`` are hedged to a follower.
        """
        lead = self.group.leader
        if not self.group.current(lead, page_no):
            # The anchor replica cannot serve this page (dead, or it is
            # a freshly-elected leader still missing pages from its own
            # downtime): read from any live replica with a current copy.
            return self._read_from_peer(start_us, page_no)
        try:
            result = self.leader.read_page(start_us, page_no)
        except PageCorruptionError as err:
            return self._read_with_repair(start_us, page_no, lead, err)
        hedged = False
        if (
            self.hedge_after_us > 0
            and len(self.nodes) > 1
            and result.done_us - start_us > self.hedge_after_us
        ):
            result = self._hedged_read(start_us, page_no, result)
            hedged = True
        self.clock.advance_to(result.done_us)
        rec = recorder_active()
        if rec is not None:
            rec.emit(
                result.done_us, "io", "page_read",
                page=page_no,
                latency_us=round(result.done_us - start_us, 3),
                hedged=hedged,
            )
        return result

    def _current_reads(self, at_us: float, page_no: int, indexes):
        """Read ``page_no`` from each replica of ``indexes`` that holds a
        current copy, in order and off the tracer (the caller's span
        already owns this time).  Yields ``(index, result, error)`` with
        exactly one of the two set; lazy, so a caller that stops at the
        first outcome it can use touches no further replica."""
        for i in indexes:
            if not self.group.current(i, page_no):
                continue
            try:
                with self.metrics.tracer.suppressed():
                    result, error = self.nodes[i].read_page(at_us, page_no), None
            except ReproError as err:
                result, error = None, err
            yield i, result, error

    def _read_from_peer(self, start_us: float, page_no: int) -> ReadResult:
        """Serve a read when the leader replica cannot: first live
        replica holding a current copy wins (repairing as needed)."""
        last_err: Optional[ReproError] = None
        for i, result, err in self._current_reads(
            start_us, page_no, range(len(self.nodes))
        ):
            if isinstance(err, PageCorruptionError):
                return self._read_with_repair(start_us, page_no, i, err)
            if err is not None:
                last_err = err
                continue
            self.clock.advance_to(result.done_us)
            return result
        if last_err is not None:
            raise last_err
        raise ReproError(
            f"no live replica holds a current copy of page {page_no}"
        )

    def _hedged_read(
        self, start_us: float, page_no: int, leader_result: ReadResult
    ) -> ReadResult:
        """Fire a backup read at a follower after the hedge timeout; the
        earlier completion wins (the slow-I/O mitigation of §4.1.1)."""
        hedge_start = start_us + self.hedge_after_us
        for _, mirror, err in self._current_reads(
            hedge_start, page_no, self.group.followers()
        ):
            if err is not None:
                continue  # corrupt/missing there: the scrubber's problem
            self.metrics.counter("chaos.hedged_reads").add(1)
            if mirror.done_us < leader_result.done_us:
                self.metrics.counter("chaos.hedge_wins").add(1)
                return mirror
            return leader_result
        return leader_result

    def _attribute(self, err: PageCorruptionError) -> str:
        """Fault-kind label for a detected corruption (via the ledger)."""
        if self.chaos_plan is not None:
            kind = self.chaos_plan.ledger.kind_for_node(
                err.node, err.lba, err.n_blocks
            )
            if kind is not None:
                return kind.value
        return "unknown"

    def _count_scrub(
        self, at_us: float, outcome: str, page_no: int, node: int, kind: str,
        **extra,
    ) -> None:
        """One ``chaos.<outcome>`` count and its ``scrub`` event."""
        self.metrics.counter("chaos." + outcome, kind=kind).add(1)
        rec = recorder_active()
        if rec is not None:
            rec.emit(
                at_us, "scrub", outcome,
                page=page_no, node=node, kind=kind, **extra,
            )

    def _read_with_repair(
        self,
        start_us: float,
        page_no: int,
        bad_index: int,
        first_err: PageCorruptionError,
    ) -> ReadResult:
        """Serve a read despite corruption, then repair every bad copy."""
        bad = [(bad_index, first_err)]
        good: Optional[ReadResult] = None
        good_index = -1
        others = [i for i in range(len(self.nodes)) if i != bad_index]
        for i, candidate, err in self._current_reads(start_us, page_no, others):
            if isinstance(err, PageCorruptionError):
                bad.append((i, err))
            elif err is None:
                good, good_index = candidate, i
                break
        kinds = {i: self._attribute(err) for i, err in bad}
        for i, _ in bad:
            self._count_scrub(start_us, "detected", page_no, i, kinds[i])
        if good is None:
            for i, _ in bad:
                self._count_scrub(
                    start_us, "unrepairable", page_no, i, kinds[i]
                )
            raise first_err
        entry = self.nodes[good_index].index.get(page_no)
        applied = entry.applied_lsn if entry else 0
        with self.metrics.tracer.suppressed():
            for i, err in bad:
                try:
                    self.nodes[i].repair_page(
                        good.done_us, page_no, good.data, applied_lsn=applied
                    )
                except DeviceUnavailableError:
                    self._count_scrub(
                        good.done_us, "unrepairable", page_no, i, kinds[i]
                    )
                    continue
                if self.chaos_plan is not None:
                    self.chaos_plan.ledger.clear_node(
                        err.node, err.lba, err.n_blocks
                    )
                self._count_scrub(
                    good.done_us, "repaired", page_no, i, kinds[i],
                    source=good_index,
                )
        return good

    def scrub(self, start_us: float) -> float:
        """Background scrubber: checksum-verify every replica copy of
        every indexed page, repairing damage found.  Returns the
        simulated completion time."""
        now = self.resync_missed(start_us)
        pages: set = set()
        for i, node in enumerate(self.nodes):
            if self.group.alive[i]:
                pages.update(p for p, _ in node.index.items())
        rec = recorder_active()
        if rec is not None:
            rec.emit(now, "scrub", "sweep_start", pages=len(pages))
        for page_no in sorted(pages):
            for i, node in enumerate(self.nodes):
                if not self.group.current(i, page_no):
                    continue
                has_copy = (
                    node.index.get(page_no) is not None
                    or node.redo_cache.get(page_no)
                    or node.log_store.blocks_for(page_no) > 0
                )
                if not has_copy:
                    continue
                self.metrics.counter("chaos.scrub_pages").add(1)
                try:
                    with self.metrics.tracer.suppressed():
                        result = node.read_page(now, page_no)
                    now = result.done_us
                except PageCorruptionError as err:
                    result = self._read_with_repair(now, page_no, i, err)
                    now = result.done_us
                except DeviceUnavailableError:
                    continue  # device down: scrub this copy next round
        if rec is not None:
            rec.emit(now, "scrub", "sweep_end", pages=len(pages))
        return now

    # ------------------------------------------------------------------ #
    # Space                                                               #
    # ------------------------------------------------------------------ #

    @property
    def logical_used_bytes(self) -> int:
        return self.leader.logical_used_bytes

    @property
    def physical_used_bytes(self) -> int:
        return self.leader.physical_used_bytes

    def compression_ratio(self) -> float:
        return self.leader.compression_ratio()
