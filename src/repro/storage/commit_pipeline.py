"""WAL/redo group commit with pipelined replica fan-out.

The synchronous :meth:`PolarStore.write_redo` sums its parts
analytically: leader persist, then follower persists offset by one RPC,
then the quorum ack.  At scale neither shape holds — commits arriving
while a flush is in flight share the *next* performance-layer write
(group commit, the at-scale form of Opt#1), and the leader's device
write overlaps the follower round-trips (pipelined fan-out) instead of
being serialized against them.

:class:`GroupCommitPipeline` is the engine-mode commit path:

* every :meth:`commit_proc` call appends its records to the pending
  list and wakes the single flusher process;
* the flusher drains the pending list into one batch, encodes it as one
  blob, and replicates it.  While that flush is in flight, new commits
  pile up and form the next batch — batch size *emerges from load*, no
  timer or tuning needed;
* replication spawns the leader persist and all follower pipelines
  (send RTT → persist → ack RTT) as concurrent processes; the commit
  event fires the moment the leader is durable and ``quorum - 1``
  follower acks are in.  A slow follower keeps occupying its device in
  the background without delaying the commit;
* if enough followers fail mid-flight that quorum can never be reached
  — or an election fences this replication attempt — the flusher
  *retries* the batch with bounded, seeded-jitter exponential backoff
  (a transient quorum loss across a failover is the expected case, not
  an error).  Only when the retry deadline is exhausted does the commit
  event fail with :class:`ReplicationError` — every waiter in the batch sees
  the same error, and nothing deadlocks, exactly as before;
* each replication attempt snapshots the epoch of the store's
  :class:`~repro.storage.replication.ReplicationGroup` — the same object that
  tells it who is alive and how many acks make a majority — and is
  *fenced*: if an election moves leadership while the fan-out is in
  flight, the attempt fails rather than letting a deposed leader
  acknowledge a commit it can no longer guarantee.

With a single client the pipeline reproduces the synchronous path's
timings exactly (each batch has one commit, the fan-out arithmetic
degenerates to ``max(leader, k-th ack)``) — the analytic-equivalence
property the legacy tests rely on.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.common.errors import (
    DeviceUnavailableError,
    ReplicationError,
    ReproError,
)
from repro.common.rng import make_rng
from repro.engine.core import Engine, Event
from repro.obs.events import recorder_active
from repro.storage.redo import RedoRecord, encode_records

#: Most commits one flush carries; the rest wait for the next flush.
MAX_BATCH = 64
#: Base pause before re-replicating after a transient ReplicationError;
#: doubles per attempt with seeded jitter.
RETRY_BACKOFF_US = 250.0
#: Total retry budget per batch; exhausted = fail-fast.
RETRY_DEADLINE_US = 60_000.0


class GroupCommitPipeline:
    """One flusher per volume batching concurrent redo commits.

    The volume owns its pipeline and passes itself to each commit; the
    pipeline keeps no reference back to it."""

    def __init__(self, store, engine: Engine) -> None:
        self.engine = engine
        self._retry_rng = make_rng(
            getattr(store, "seed", 0), "commit-retry"
        )
        #: (records, arrive_us, commit event) awaiting the next flush.
        self._pending: List[Tuple[List[RedoRecord], float, Event]] = []
        self._flusher = None
        m = store.metrics
        self._batches = m.counter("storage.group_commit.batches")
        self._batched = m.counter("storage.group_commit.commits")

    def commit_proc(self, store, records: Sequence[RedoRecord]):
        """Engine process: enqueue a commit of ``store`` (the volume
        that owns this pipeline), wait for its batch to be durable at
        quorum; returns the commit time."""
        engine = self.engine
        done = engine.event("group-commit")
        self._pending.append((list(records), engine.now_us, done))
        if self._flusher is None or self._flusher.done:
            self._flusher = engine.spawn(
                self._flush_loop(store), name="redo-flusher"
            )
        commit = yield done
        return commit

    def _flush_loop(self, store):
        """Drain pending commits batch by batch until none remain, then
        exit (the next commit spawns a fresh flusher)."""
        while self._pending:
            batch = self._pending[:MAX_BATCH]
            del self._pending[: len(batch)]
            records = [r for recs, _, _ in batch for r in recs]
            self._batches.inc()
            self._batched.add(len(batch))
            try:
                commit = yield from self._replicate_with_retry(
                    store, records
                )
            except ReproError as exc:
                for _, _, done in batch:
                    done.fail(exc)
                continue
            store._after_redo_commit(commit, records)
            rec = recorder_active()
            if rec is not None:
                rec.emit(
                    commit, "commit", "group_flush",
                    commits=len(batch),
                    records=len(records),
                    oldest_wait_us=round(commit - batch[0][1], 3),
                )
            tracer = store.metrics.tracer
            for _, arrive_us, done in batch:
                # Retrospective span (simulated timestamps, emitted after
                # the fact): the ambient span stack cannot stay open
                # across engine yields, so the per-commit redo_commit
                # span is recorded once its duration is known.
                sp = tracer.begin(
                    "storage.redo_commit", arrive_us, layer="storage"
                )
                tracer.end(sp, commit)
                done.succeed(commit)

    def _replicate_with_retry(self, store, records: List[RedoRecord]):
        """Replicate one batch, retrying transient :class:`ReplicationError`
        with bounded seeded-jitter backoff (see module docstring).

        A batch that succeeds first try draws no randomness and waits no
        timeout — the success path is timing-identical to calling
        :meth:`_replicate_proc` directly, which the analytic-equivalence
        tests depend on.
        """
        engine = self.engine
        deadline = engine.now_us + RETRY_DEADLINE_US
        attempt = 0
        while True:
            try:
                commit = yield from self._replicate_proc(store, records)
            except ReplicationError as exc:
                attempt += 1
                if engine.now_us >= deadline:
                    raise ReplicationError(
                        f"commit gave up after {attempt} attempts: {exc}"
                    )
                pause = RETRY_BACKOFF_US * (2 ** min(attempt, 6))
                pause *= 0.5 + self._retry_rng.random()
                pause = max(1.0, min(pause, deadline - engine.now_us))
                rec = recorder_active()
                if rec is not None:
                    rec.emit(
                        engine.now_us, "commit", "retry",
                        attempt=attempt,
                        pause_us=round(pause, 3),
                        reason=str(exc),
                    )
                yield engine.timeout(pause)
            else:
                return commit

    def _replicate_proc(self, store, records: List[RedoRecord]):
        """Pipelined quorum replication of one encoded redo batch.

        Leader persist and every follower pipeline run as concurrent
        processes; this process wakes when quorum is durable (or
        provably unreachable).  The attempt is pinned to the group
        epoch observed at entry: an election mid-flight fails it with
        :class:`ReplicationError` instead of letting the deposed leader ack.
        """
        group = store.group
        engine = self.engine
        group.require_quorum()
        epoch = group.epoch
        leader = store.leader
        blob = encode_records(records)
        pages = [r.page_no for r in records]
        send = store.network.rpc_us(len(blob))
        ack = store.network.rpc_us(64)
        needed = group.acks_needed
        quorum_ev = engine.event("redo-quorum")
        state = {"leader_done": False, "acks": 0, "live": 0, "lost": 0}

        def check() -> None:
            if quorum_ev.fired:
                return
            if group.epoch != epoch:
                quorum_ev.fail(ReplicationError(
                    "fenced: leadership changed during replication"
                ))
            elif state["leader_done"] and state["acks"] >= needed:
                quorum_ev.succeed(engine.now_us)
            elif state["live"] - state["lost"] < needed:
                alive = 1 + state["live"] - state["lost"]
                quorum_ev.fail(
                    ReplicationError(f"no quorum: {alive}/{group.size} alive")
                )

        def leader_proc():
            yield from leader.persist_redo_proc(blob)
            state["leader_done"] = True
            check()

        def follower_proc(i: int, node):
            yield engine.timeout(send)
            try:
                # Replica persists are untraced, mirroring the
                # synchronous path's span suppression: only the
                # leader's work is attributed on the commit path.
                yield from node.persist_redo_proc(blob, trace=False)
            except DeviceUnavailableError:
                group.missed[i].update(pages)
                state["lost"] += 1
                check()
                return
            yield engine.timeout(ack)
            state["acks"] += 1
            check()

        engine.spawn(leader_proc(), name="redo-leader")
        for i in group.followers():
            if not group.alive[i]:
                group.missed[i].update(pages)
                continue
            state["live"] += 1
            engine.spawn(
                follower_proc(i, store.nodes[i]), name=f"redo-follower-{i}"
            )
        check()  # degenerate case: no follower can ever ack
        commit = yield quorum_ev
        return commit
