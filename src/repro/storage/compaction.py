"""The compaction scheduler: policy-issued maintenance as engine daemons.

The fixed ``consolidator_proc`` loop used to *be* the background story:
every cycle, fold all pending redo into pages on every live node.  With
pluggable consolidation policies that is only the single-level behaviour;
run-based policies (leveled/tiered) instead accumulate compaction debt
that someone has to pay down.  :class:`CompactionScheduler` is that
someone — one engine daemon per volume that each cycle:

1. runs the classic consolidation pass for policies that want it
   (``consolidate_on_cycle``, i.e. single-level — byte-identical to the
   old loop, including the shared ``storage.background.consolidate_cycles``
   counter);
2. asks each node's policy for :class:`~repro.storage.consolidation.CompactionTask`
   work, runs the highest-priority task, and re-plans until the policy is
   satisfied or the per-cycle token budget runs out.

Compaction I/O goes through the same shared device state as foreground
traffic, so a compacting device genuinely delays concurrent reads — and
a token-throttled scheduler lets debt build up until read fan-out
visibly grows (the trade the scheduler tests measure).

Instrumentation (``storage.compaction.*`` counters, the ``compaction``
flight-recorder channel) is created lazily on the first real task, so a
default single-level volume registers nothing new and its metric
fingerprints stay identical to pre-scheduler builds.
"""

from __future__ import annotations

from typing import Optional

from repro.engine import Engine
from repro.obs.events import emit, recorder_active
from repro.storage.consolidation import ConsolidationConfig


def _store_consolidation(store) -> ConsolidationConfig:
    config = getattr(store, "consolidation", None)
    return config if config is not None else ConsolidationConfig()


class CompactionScheduler:
    """Periodic consolidation + compaction for one volume's nodes."""

    def __init__(
        self,
        store,
        engine: Engine,
        period_us: Optional[float] = None,
        tokens_per_cycle: Optional[int] = None,
    ) -> None:
        self.store = store
        self.engine = engine
        config = _store_consolidation(store)
        self.period_us = (
            config.consolidate_period_us if period_us is None else period_us
        )
        self.tokens_per_cycle = (
            config.compaction_tokens
            if tokens_per_cycle is None
            else tokens_per_cycle
        )
        #: Same counter (and name) the pre-scheduler consolidator bumped.
        self._cycles = store.metrics.counter(
            "storage.background.consolidate_cycles"
        )
        # Compaction instruments are lazy: see module docstring.
        self._tasks_counter = None
        self._deferred_counter = None
        self._compact_us = None

    # -- the daemon ----------------------------------------------------------

    def proc(self):
        """Generator to ``engine.spawn`` (``consolidator_proc`` wraps it)."""
        engine = self.engine
        store = self.store
        while True:
            yield engine.timeout(self.period_us)
            for i, node in enumerate(store.nodes):
                if not store.group.alive[i]:
                    continue
                if getattr(node.log_store, "consolidate_on_cycle", True):
                    done = node.consolidate_pending(engine.now_us)
                    if done > engine.now_us:
                        yield engine.sleep_until(done)
                yield from self.run_pending(node)
            self._cycles.inc()

    def run_pending(self, node):
        """Run the node's planned compactions (respecting the token cap).

        A generator: yields ``sleep_until`` events so compaction time is
        spent on the engine clock, competing for the shared devices.
        """
        policy = node.log_store
        plan = getattr(policy, "plan_compactions", None)
        if plan is None:
            return
        engine = self.engine
        ran = 0
        while True:
            tasks = plan()
            if not tasks:
                break
            tasks = sorted(tasks, key=lambda t: (t.priority, t.level))
            if self.tokens_per_cycle and ran >= self.tokens_per_cycle:
                self._note_deferred(node, tasks)
                break
            task = tasks[0]
            start = engine.now_us
            done = policy.compact(start, task)
            ran += 1
            self._note_task(node, task, start, done)
            if done > engine.now_us:
                yield engine.sleep_until(done)

    def drain(self, node, now_us: float) -> float:
        """Synchronously run every planned compaction (non-engine callers:
        benchmarks and checkpoint-style barriers).  Returns the finish
        time on the simulated clock."""
        policy = node.log_store
        plan = getattr(policy, "plan_compactions", None)
        if plan is None:
            return now_us
        while True:
            tasks = plan()
            if not tasks:
                return now_us
            task = sorted(tasks, key=lambda t: (t.priority, t.level))[0]
            start = now_us
            now_us = policy.compact(start, task)
            self._note_task(node, task, start, now_us)

    # -- instrumentation -----------------------------------------------------

    def _note_task(self, node, task, start_us: float, done_us: float) -> None:
        if self._tasks_counter is None:
            self._tasks_counter = self.store.metrics.counter(
                "storage.compaction.tasks"
            )
            self._compact_us = self.store.metrics.series(
                "storage.compaction.task_us"
            )
        self._tasks_counter.inc()
        self._compact_us.append(done_us - start_us)
        if recorder_active() is not None:
            emit(
                start_us,
                "compaction",
                "task",
                node=node.name,
                level=task.level,
                reason=task.reason,
                runs=task.runs,
                us=round(done_us - start_us, 3),
            )

    def _note_deferred(self, node, tasks) -> None:
        if self._deferred_counter is None:
            self._deferred_counter = self.store.metrics.counter(
                "storage.compaction.deferred"
            )
        self._deferred_counter.add(len(tasks))
        if recorder_active() is not None:
            emit(
                self.engine.now_us,
                "compaction",
                "deferred",
                node=node.name,
                debt=len(tasks),
            )
