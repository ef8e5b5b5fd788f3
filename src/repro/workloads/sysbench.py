"""A sysbench-like OLTP driver over the simulated PolarDB.

Implements the seven workloads of Figure 12 (I, P-S, RO, RW, WO, U-I,
U-NI) with sysbench's transaction shapes: OLTP-Read-Only is 10 point
selects + 4 range scans; Read-Write adds the write mix; Write-Only is the
write mix alone; Update-Index rewrites an indexed column (modelled as
delete+insert, which touches tree structure); Update-Non-Index overwrites
a payload column in place.

``threads`` client threads run as genuine concurrent processes on one
shared :class:`repro.engine.core.Engine` (this module used to keep a private
event heap).  Against a :class:`~repro.db.database.PolarDB` the clients
drive the engine-native proc API end to end — statement CPU queues on
the compute core pools, redo commits coalesce in the storage layer's
group-commit pipeline, device queues really back up — so thread scaling,
saturation, and the Fig 15 CPU-bound crossover *emerge* from queueing.
Baseline engines without ``bind_engine`` still run on the shared kernel
through a synchronous adapter (each op executes analytically and the
client sleeps through its completion time), preserving their timings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.common.latency import LatencyStats
from repro.engine.core import Engine, Event

#: sysbench's c-column: digits + fixed padding, moderately compressible.
_PAD = b"-" * 40
#: The one table a sysbench run loads and queries.
TABLE = "sbtest"
#: Skew of the Zipf key sampler.
ZIPF_S = 0.6


def default_value(rng: random.Random, key: int) -> bytes:
    return b"sbtest|%010d|%020d|%s|%020d\n" % (
        key,
        rng.randrange(10**19),
        _PAD,
        rng.randrange(10**19),
    )


@dataclass
class _TxnContext:
    """Client-side operation vocabulary; every op is an engine process.

    With ``use_procs`` the db's engine-native ``*_proc`` generators are
    driven (real queueing); without it each legacy call runs at the
    engine's current time and the client sleeps through its analytic
    completion — identical timing to the old private-heap driver.
    """

    db: object
    table: str
    rng: random.Random
    sampler: ZipfSampler
    fresh_key: Callable[[], int]
    engine: Engine
    ro_index: int = -1  # -1: reads go to the RW node
    use_procs: bool = False
    _row_locks: Dict[int, Event] = field(default_factory=dict, init=False)

    def pick_key(self) -> int:
        return int(self.sampler.one())

    def _op(self, name: str, *args, **kwargs):
        if self.use_procs:
            proc = getattr(self.db, name + "_proc")(*args, **kwargs)
            return (yield from proc)
        result = getattr(self.db, name)(self.engine.now_us, *args, **kwargs)
        done = getattr(result, "done_us", result)
        if done > self.engine.now_us:
            yield self.engine.sleep_until(done)
        return result

    def select(self, key: int):
        yield from self._op("select", self.table, key, ro_index=self.ro_index)

    def range_scan(self, key: int, span: int = 20):
        yield from self._op("range_select", self.table, key, key + span)

    def _lock(self, key: int):
        """Take ``key``'s row lock across a row rewrite (as InnoDB does).
        A client holds one at a time, so waiting cannot deadlock; a failed
        statement ends the run, so only success releases the lock."""
        while key in self._row_locks:
            yield self._row_locks[key]
        self._row_locks[key] = Event(self.engine, f"row {key}")

    def update_non_index(self, key: int):
        yield from self._lock(key)
        value = default_value(self.rng, key)
        yield from self._op("update", self.table, key, value)
        self._row_locks.pop(key).succeed()

    def update_index(self, key: int):
        """Index-column update: reposition the row (delete + insert)."""
        yield from self._lock(key)
        yield from self._op("delete", self.table, key)
        yield from self._op(
            "insert", self.table, key, default_value(self.rng, key)
        )
        self._row_locks.pop(key).succeed()

    def insert_fresh(self):
        key = self.fresh_key()
        yield from self._op(
            "insert", self.table, key, default_value(self.rng, key)
        )


def _txn_insert(ctx: _TxnContext):
    yield from ctx.insert_fresh()


def _txn_point_select(ctx: _TxnContext):
    yield from ctx.select(ctx.pick_key())


def _txn_read_only(ctx: _TxnContext):
    for _ in range(10):
        yield from ctx.select(ctx.pick_key())
    for _ in range(4):
        yield from ctx.range_scan(ctx.pick_key())


def _txn_write_mix(ctx: _TxnContext):
    yield from ctx.update_index(ctx.pick_key())
    yield from ctx.update_non_index(ctx.pick_key())
    yield from ctx.update_index(ctx.pick_key())


def _txn_read_write(ctx: _TxnContext):
    yield from _txn_read_only(ctx)
    yield from _txn_write_mix(ctx)


def _txn_write_only(ctx: _TxnContext):
    yield from _txn_write_mix(ctx)


def _txn_update_index(ctx: _TxnContext):
    yield from ctx.update_index(ctx.pick_key())


def _txn_update_non_index(ctx: _TxnContext):
    yield from ctx.update_non_index(ctx.pick_key())


#: Transaction shapes, as generator factories over a :class:`_TxnContext`.
SYSBENCH_WORKLOADS: Dict[str, Callable] = {
    "insert": _txn_insert,
    "point_select": _txn_point_select,
    "read_only": _txn_read_only,
    "read_write": _txn_read_write,
    "write_only": _txn_write_only,
    "update_index": _txn_update_index,
    "update_non_index": _txn_update_non_index,
}

#: Paper-figure labels.
WORKLOAD_LABELS = {
    "insert": "I",
    "point_select": "P-S",
    "read_only": "RO",
    "read_write": "RW",
    "write_only": "WO",
    "update_index": "U-I",
    "update_non_index": "U-NI",
}


@dataclass
class SysbenchResult:
    workload: str
    threads: int
    transactions: int
    duration_s: float
    #: Actual simulated span covered (start of first txn to end of last);
    #: differs from ``duration_s`` when a transaction cap cut the run short.
    elapsed_s: float = 0.0
    latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def tps(self) -> float:
        span = self.elapsed_s if self.elapsed_s > 0 else self.duration_s
        if span <= 0:
            return 0.0
        return self.transactions / span

    @property
    def avg_latency_us(self) -> float:
        return self.latency.mean_us

    @property
    def p95_latency_us(self) -> float:
        return self.latency.p95_us if self.latency.count else 0.0


def prepare_table(db, rows: int = 2000, seed: int = 0) -> float:
    """Create and load the sysbench table; returns the load finish time.

    Accepts either a legacy ``PolarDB`` (now_us-threaded calls) or a
    :class:`repro.api.PolarStoreClient` (which keeps the clock itself).
    """
    rng = random.Random(seed)
    db.create_table(TABLE)
    data = [(key, default_value(rng, key)) for key in range(rows)]
    from repro.api.client import PolarStoreClient

    if isinstance(db, PolarStoreClient):
        db.bulk_load(TABLE, data)
        return db.checkpoint()
    done = db.bulk_load(0.0, TABLE, data)
    return db.checkpoint(done)


def run_sysbench(
    db,
    workload: str,
    duration_s: float = 2.0,
    threads: int = 16,
    key_range: int = 2000,
    start_us: float = 0.0,
    seed: int = 0,
    ro_index: int = -1,
    max_transactions: Optional[int] = None,
) -> SysbenchResult:
    """Run one workload for ``duration_s`` of *simulated* time on a fresh
    engine that starts at ``start_us``."""
    if workload not in SYSBENCH_WORKLOADS:
        raise KeyError(
            f"unknown workload {workload!r}; options: {sorted(SYSBENCH_WORKLOADS)}"
        )
    # Here, not at module level: the sampler needs numpy, and a socket
    # client (``default_value``) imports this module without it.
    from repro.workloads.zipf import ZipfSampler

    txn = SYSBENCH_WORKLOADS[workload]
    rng = random.Random(seed)
    fresh = iter(range(key_range + 1_000_000, 10**9))
    eng = Engine(start_us=start_us)
    use_procs = hasattr(db, "bind_engine")
    if use_procs:
        db.bind_engine(eng)
    ctx = _TxnContext(
        db=db,
        table=TABLE,
        rng=rng,
        sampler=ZipfSampler(key_range, s=ZIPF_S, seed=seed),
        fresh_key=lambda: next(fresh),
        engine=eng,
        ro_index=ro_index,
        use_procs=use_procs,
    )
    horizon = start_us + duration_s * 1e6
    result = SysbenchResult(workload, threads, 0, duration_s)
    state = {"started": 0, "last_done": start_us}

    def client(tid: int):
        # Each client issues its next transaction as soon as its previous
        # one completes; the cap is checked *before* starting a
        # transaction, so exactly ``max_transactions`` execute.
        while True:
            now = eng.now_us
            if now >= horizon:
                return
            if (
                max_transactions is not None
                and state["started"] >= max_transactions
            ):
                return
            state["started"] += 1
            yield from txn(ctx)
            done = eng.now_us
            result.latency.record(done - now)
            result.transactions += 1
            state["last_done"] = max(state["last_done"], done)

    procs = [
        eng.spawn(client(tid), name=f"sysbench-{tid}", at_us=start_us)
        for tid in range(threads)
    ]
    eng.run_until_complete(procs)
    result.elapsed_s = max(state["last_done"] - start_us, 0.0) / 1e6
    return result
