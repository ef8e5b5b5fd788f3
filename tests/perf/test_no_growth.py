"""Nothing in ``src/repro`` grows with history.

A fixed write workload runs until every ring, window and cache it
touches is full, and then two more rounds of the same size, each ending
in a checkpoint.  ``tracemalloc`` snapshots at the round boundaries are
diffed by allocating line, and the lines are grouped by the function
that holds them.  A function whose retained heap grows by more than
``MAX_BYTES_PER_TXN`` per transaction in *both* rounds holds state that
grows with the number of transactions ever run rather than with the
data: memory and recovery time then grow without bound.  (A bounded
structure that is still settling, or a dict that happens to resize,
grows in one round and not the next.)

Sites that grow today are listed in ``KNOWN_GROWTH`` with the ROADMAP
item that removes the growth.  Each is a strict xfail: it fails on the
day its item lands, and the entry must then be deleted.

The workload runs on both paths: the synchronous ``PolarDB`` calls, and
an engine-bound client whose writers are engine processes.  On the
engine path no process may be left unfinished once a round has run to
idle: a process parked on an event that nothing fires is held by its
engine until ``Engine.close()``, so one left per round is a leak.
"""

import ast
import functools
import random
import tracemalloc
from pathlib import Path

import pytest

from repro.api import PolarStore
from repro.db.database import PolarDB
from tests.perf.memo_swap import memo_capacity

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
ROWS = 300
ROW_BYTES = 100
#: Redo blocks before the first snapshot: more than twice a storage
#: node's redo-block window, so the window has turned over at least once.
WARMUP_BLOCKS = 600
ROUND_TXNS = 400
#: Concurrent writer processes on the engine path.  Group commit puts
#: one redo block under each batch of their commits.
WRITERS = 2
#: Heap a function may gain per transaction in each measured round.
MAX_BYTES_PER_TXN = 4.0

KNOWN_GROWTH = {
    "storage/redo.py::encode_records":
        "ROADMAP item 17: every persisted redo batch is kept, encoded, in "
        "StorageNode.durable_redo_blobs",
    "storage/node.py::StorageNode.persist_redo":
        "ROADMAP item 17: the durable_redo_blobs list itself",
    "storage/node.py::StorageNode.persist_redo_proc":
        "ROADMAP item 17: the durable_redo_blobs list itself (engine path)",
    "storage/wal.py::WALRecord.encode":
        "ROADMAP item 17: WriteAheadLog keeps every encoded record in RAM",
}


@functools.lru_cache(maxsize=None)
def _functions(path: str):
    """(first line, last line, qualified name) of every function in
    ``path``, innermost last for a given line."""
    tree = ast.parse(Path(path).read_text())
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                spans.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return sorted(spans)


def site(filename: str, lineno: int) -> str:
    """``storage/redo.py::encode_records`` for a line of the package."""
    name = "<module>"
    for first, last, qualname in _functions(filename):
        if first <= lineno <= last:
            name = qualname
    return f"{Path(filename).relative_to(PACKAGE).as_posix()}::{name}"


def by_site(snapshot) -> dict:
    sizes: dict = {}
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        key = site(frame.filename, frame.lineno)
        sizes[key] = sizes.get(key, 0) + stat.size
    return sizes


class SyncDeployment:
    """``PolarDB`` driven by plain calls on a simulated-time cursor."""

    #: One redo block per transaction.
    warmup_txns = WARMUP_BLOCKS

    def __init__(self, rng) -> None:
        self.rng = rng
        self.db = PolarDB(ro_nodes=0)
        self.db.create_table("t")
        rows = [(key, rng.randbytes(ROW_BYTES)) for key in range(ROWS)]
        self.now = self.db.bulk_load(0.0, "t", rows)

    def run(self, txns: int) -> None:
        db, rng, now = self.db, self.rng, self.now
        for _ in range(txns):
            key = rng.randrange(ROWS)
            now = db.update(now, "t", key, rng.randbytes(ROW_BYTES)).done_us
        self.now = db.checkpoint(now)

    def pending(self) -> int:
        return 0

    def close(self) -> None:
        pass


class EngineDeployment:
    """An engine-bound client whose updates are ``WRITERS`` concurrent
    engine processes, so they queue on the volume's resources and share
    group commits."""

    warmup_txns = WARMUP_BLOCKS * WRITERS

    def __init__(self, rng) -> None:
        self.rng = rng
        self.client = PolarStore.open(
            db={"ro_nodes": 0}, engine={"enabled": True}
        )
        self.client.create_table("t")
        self.client.bulk_load(
            "t", [(key, rng.randbytes(ROW_BYTES)) for key in range(ROWS)]
        )

    def _writer(self, txns: int):
        client, rng = self.client, self.rng
        for _ in range(txns):
            key = rng.randrange(ROWS)
            yield from client.update_proc("t", key, rng.randbytes(ROW_BYTES))

    def run(self, txns: int) -> None:
        engine = self.client.engine
        engine.run_until_complete([
            engine.spawn(self._writer(txns // WRITERS))
            for _ in range(WRITERS)
        ])
        # Replication to the slowest replica outlives the commit.
        engine.run_until_idle()
        self.client.checkpoint()

    def pending(self) -> int:
        return len(self.client.engine._live)

    def close(self) -> None:
        self.client.close()


DEPLOYMENTS = {"sync": SyncDeployment, "engine": EngineDeployment}


def measure(deployment):
    """(site -> bytes per transaction gained in round 1, in round 2;
    unfinished engine processes at each snapshot)."""
    deployment.run(deployment.warmup_txns)
    filters = [tracemalloc.Filter(True, f"{PACKAGE}/*")]
    sizes, pending = [], []
    for txns in (0, ROUND_TXNS, ROUND_TXNS):
        deployment.run(txns)
        sizes.append(by_site(
            tracemalloc.take_snapshot().filter_traces(filters)
        ))
        pending.append(deployment.pending())
    per_txn = {
        key: tuple(
            (after.get(key, 0) - before.get(key, 0)) / ROUND_TXNS
            for before, after in zip(sizes, sizes[1:])
        )
        for key in set().union(*sizes)
    }
    return per_txn, pending


@pytest.fixture(scope="module")
def growth():
    """Deployment name -> :func:`measure` of it."""
    # Without the codec memo: it is bounded, but filling 2 MiB would
    # take far longer than this test may.
    results = {}
    with memo_capacity(0):
        for name, build in DEPLOYMENTS.items():
            tracemalloc.start()
            try:
                deployment = build(random.Random("no-growth"))
                results[name] = measure(deployment)
                deployment.close()
            finally:
                tracemalloc.stop()
    return results


def grows(per_round) -> bool:
    return all(gained > MAX_BYTES_PER_TXN for gained in per_round)


@pytest.mark.parametrize("name", DEPLOYMENTS)
def test_no_function_grows_with_history(growth, name):
    per_txn, _ = growth[name]
    growing = {
        key: per_round for key, per_round in per_txn.items()
        if grows(per_round) and key not in KNOWN_GROWTH
    }
    assert not growing, (
        f"retained heap grows by more than {MAX_BYTES_PER_TXN} B per "
        f"transaction in both rounds (B/txn per round): {growing}"
    )


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.xfail(strict=True, reason=reason))
    for key, reason in KNOWN_GROWTH.items()
])
def test_known_growth_is_still_there(growth, key):
    """Strict xfail: passes (and so fails the suite) once the item that
    owns the growth lands on every path; then delete the entry."""
    per_round = {name: per_txn.get(key, (0.0, 0.0))
                 for name, (per_txn, _) in growth.items()}
    assert not any(grows(rounds) for rounds in per_round.values()), per_round


def test_no_engine_process_is_left_pending(growth):
    """Every process a round spawned has finished once it ran to idle."""
    _, pending = growth["engine"]
    assert pending == [0, 0, 0]
