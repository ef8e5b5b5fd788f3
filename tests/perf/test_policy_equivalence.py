"""Golden A/B: the policy refactor changed nothing on the default path.

Two independent equivalence proofs:

1. **Wrapper transparency** — the pinned oracle scenarios fingerprint
   identically whether nodes get the default :class:`SingleLevelPolicy`
   or the raw pre-refactor log stores (``make_policy`` monkeypatched
   away).  Same bytes, same simulated times, same metrics.

2. **Scheduler transparency** — a daemon-driven engine scenario
   fingerprints identically under the new ``consolidator_proc`` (the
   :class:`CompactionScheduler`) and under a verbatim copy of the
   pre-refactor consolidator loop.
"""

import hashlib
import itertools
import random

import repro.storage.store as store_mod
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.engine import Engine
from repro.storage.background import scrubber_proc, start_background
from repro.storage.node import NodeConfig
from repro.storage.perpage_log import PerPageLogStore, ScatteredLogStore
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore
from tests.perf import oracle


def _scenario_fingerprint(scenario):
    return oracle.run_scenario(scenario).fingerprint


def _raw_make_policy(consolidation, node_config, device, allocator):
    """The pre-refactor constructor path: a bare log store, no policy."""
    if node_config.opt_per_page_log:
        return PerPageLogStore(device, allocator)
    return ScatteredLogStore(device, allocator)


def test_pinned_scenarios_identical_with_raw_stores(monkeypatch):
    scenarios = (oracle.scenario_sysbench8, oracle.scenario_chaos_smoke)
    wrapped = [_scenario_fingerprint(s) for s in scenarios]
    monkeypatch.setattr("repro.storage.node.make_policy", _raw_make_policy)
    raw = [_scenario_fingerprint(s) for s in scenarios]
    assert wrapped == raw


# --------------------------------------------------------------------- #
# Scheduler vs the pre-refactor consolidator loop                        #
# --------------------------------------------------------------------- #


def _legacy_consolidator_proc(store, engine, period_us):
    """Verbatim copy of consolidator_proc as of the pre-refactor commit."""
    cycles = store.metrics.counter("storage.background.consolidate_cycles")
    while True:
        yield engine.timeout(period_us)
        for i, node in enumerate(store.nodes):
            if not store.group.alive[i]:
                continue
            done = node.consolidate_pending(engine.now_us)
            if done > engine.now_us:
                yield engine.sleep_until(done)
        cycles.inc()


def _make_page(seed):
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < DB_PAGE_SIZE:
        out += b"row|%08d|" % rng.randrange(10**8)
    return bytes(out[:DB_PAGE_SIZE])


def _daemon_fingerprint(spawn_daemons):
    """Engine scenario under background daemons started by the callable."""
    store_mod._node_counter = itertools.count()
    store = PolarStore(
        NodeConfig(redo_cache_bytes=8 * 1024), volume_bytes=64 * MiB, seed=9
    )
    now = 0.0
    for i in range(8):
        now = store.write_page(now, i, _make_page(i)).commit_us
    engine = Engine(start_us=now)
    store.bind_engine(engine)
    procs = spawn_daemons(store, engine)
    rng = random.Random(4)
    digest = hashlib.sha256()

    def client():
        for step in range(40):
            yield engine.timeout(700.0)
            page = step % 8
            store.write_redo(
                engine.now_us,
                [RedoRecord(100 + step, page,
                            (step * 96) % (DB_PAGE_SIZE - 128),
                            rng.randbytes(96))],
            )
            if step % 5 == 0:
                result = store.read_page(engine.now_us, page)
                digest.update(result.data)
                digest.update(b"%.6f" % result.done_us)

    engine.run_until_complete([engine.spawn(client())])
    digest.update(b"%.6f" % engine.now_us)
    for proc in procs:
        proc.cancel()
    digest.update(oracle.metrics_digest(store.metrics).encode())
    return digest.hexdigest()


def test_scheduler_matches_legacy_consolidator_loop():
    def new_daemons(store, engine):
        return start_background(
            store, engine,
            scrub_period_us=9_000.0, consolidate_period_us=2_000.0,
        )

    def legacy_daemons(store, engine):
        # Same spawn order and names as the pre-refactor start_background.
        return [
            engine.spawn(
                scrubber_proc(store, engine, 9_000.0), name="bg-scrubber"
            ),
            engine.spawn(
                _legacy_consolidator_proc(store, engine, 2_000.0),
                name="bg-consolidator",
            ),
        ]

    assert _daemon_fingerprint(new_daemons) == _daemon_fingerprint(
        legacy_daemons
    )
