"""Background maintenance as engine processes.

The storage layer's housekeeping — scrubbing and page consolidation /
compaction — used to run only when a caller chose a moment to invoke it
synchronously.  On the event kernel it becomes what it is in the paper's
system: daemons that periodically steal device time from the same queues
the foreground traffic uses.  Every slice of background I/O goes through
the shared per-device state, so a scrub pass genuinely delays concurrent
reads (and vice versa: a busy device pushes the scrubber's completion
out).  Deferred FTL garbage collection needs no daemon here: a device
bound with ``defer_gc`` starts and ends its own drain
(:meth:`repro.csd.device.BlockDevice.gc_proc`).

Since the consolidation path became policy-pluggable
(:mod:`repro.storage.consolidation`), the consolidator daemon is the
:class:`~repro.storage.compaction.CompactionScheduler`: for the default
single-level policy it behaves byte-identically to the old fixed loop,
while run-based policies get their compaction tasks executed between
consolidation cycles.  Daemon periods default to the volume's
:class:`~repro.storage.consolidation.ConsolidationConfig` instead of
hard-coded constants.

The daemons are infinite loops; :meth:`repro.engine.Engine.run_until_complete`
returns once the foreground processes finish, and the daemons can be
:meth:`~repro.engine.Process.cancel`-ed (or simply dropped with the
engine) afterwards.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine import Engine, Process
from repro.storage.compaction import CompactionScheduler, _store_consolidation

#: Default-from-config sentinel: ``start_background`` keeps ``None`` as
#: "skip this daemon", so the config default needs its own marker.
_FROM_CONFIG = object()


def scrubber_proc(store, engine: Engine, period_us: Optional[float] = None):
    """Periodic checksum scrub of every replica copy (detect-and-repair).

    Each cycle runs one full scrub pass through the shared device
    queues, then idles for ``period_us`` (default: the volume's
    ``consolidation.scrub_period_us``).
    """
    if period_us is None:
        period_us = _store_consolidation(store).scrub_period_us
    cycles = store.metrics.counter("storage.background.scrub_cycles")
    while True:
        yield engine.timeout(period_us)
        done = store.scrub(engine.now_us)
        cycles.inc()
        if done > engine.now_us:
            yield engine.sleep_until(done)


def consolidator_proc(store, engine: Engine, period_us: Optional[float] = None):
    """Periodic page generation + compaction via the scheduler.

    For the single-level policy each cycle applies cached/spilled redo to
    pages on every live node (the continuous up-to-LSN\\ :sub:`min` work
    of §2.1) exactly as the pre-scheduler loop did; leveled/tiered
    policies instead get their planned compaction tasks executed.
    ``period_us`` defaults to ``consolidation.consolidate_period_us``.
    """
    scheduler = CompactionScheduler(store, engine, period_us=period_us)
    yield from scheduler.proc()


def start_background(
    store,
    engine: Engine,
    scrub_period_us: Optional[float] = _FROM_CONFIG,  # type: ignore[assignment]
    consolidate_period_us: Optional[float] = _FROM_CONFIG,  # type: ignore[assignment]
) -> List[Process]:
    """Spawn the volume's maintenance daemons; returns the processes.

    Periods default to the volume's consolidation config
    (``scrub_period_us`` / ``consolidate_period_us``); pass ``None`` to
    skip that daemon.
    """
    config = _store_consolidation(store)
    if scrub_period_us is _FROM_CONFIG:
        scrub_period_us = config.scrub_period_us
    if consolidate_period_us is _FROM_CONFIG:
        consolidate_period_us = config.consolidate_period_us
    procs: List[Process] = []
    if scrub_period_us is not None:
        procs.append(
            engine.spawn(
                scrubber_proc(store, engine, scrub_period_us),
                name="bg-scrubber",
            )
        )
    if consolidate_period_us is not None:
        procs.append(
            engine.spawn(
                consolidator_proc(store, engine, consolidate_period_us),
                name="bg-consolidator",
            )
        )
    return procs
