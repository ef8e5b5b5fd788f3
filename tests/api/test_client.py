"""Golden equivalence: the PolarStore facade vs the legacy entry points.

The redesign's contract is that ``PolarStore.open`` changes how the
stack is wired, never what it computes: every operation routed through
the client must reproduce the legacy constructors' simulated timings,
I/O counts, and byte accounting *exactly*.
"""

import pytest

from repro.api import PolarStore, ReproConfig, build_db
from repro.api.config import NodeConfig
from repro.common.errors import ReproError
from repro.common.units import MiB
from repro.db.database import PolarDB
from repro.engine.core import Engine
from repro.storage.store import PolarStore as StorageVolume

CONFIG_DOC = {"store": {"volume_bytes": 32 * MiB, "seed": 3}}


def _op_tuple(result):
    return (result.done_us, result.io_reads, result.redo_bytes, result.value)


def _dml_script(run):
    """One mixed DML sequence; ``run(op, *args)`` executes and returns
    the OpResult.  Returns the list of observed result tuples."""
    observed = []
    for key in range(40):
        observed.append(run("insert", "t", key, bytes([key % 5]) * 64))
    for key in (3, 17, 39):
        observed.append(run("update", "t", key, b"updated" * 8))
    for key in (0, 21):
        observed.append(run("select", "t", key))
    observed.append(run("range_select", "t", 5, 25))
    observed.append(run("delete", "t", 11))
    return observed


def test_sync_ops_match_legacy_exactly():
    # Legacy: hand-threaded now_us through a PolarDB.
    legacy_db = PolarDB(
        store=StorageVolume(NodeConfig(), volume_bytes=32 * MiB, seed=3)
    )
    legacy_db.create_table("t")
    clock = {"now": 0.0}

    def run_legacy(op, *args):
        result = getattr(legacy_db, op)(clock["now"], *args)
        clock["now"] = result.done_us
        return _op_tuple(result)

    # Facade: the client keeps the cursor itself.
    client = PolarStore.open(CONFIG_DOC)
    client.create_table("t")

    def run_client(op, *args):
        return _op_tuple(getattr(client, op)(*args))

    assert _dml_script(run_legacy) == _dml_script(run_client)
    assert client.now_us == clock["now"]


def test_engine_ops_match_legacy_exactly():
    # Legacy: explicit Engine + bind_engine + engine.run(db.*_proc(...)).
    legacy_db = PolarDB(
        store=StorageVolume(NodeConfig(), volume_bytes=32 * MiB, seed=3)
    )
    legacy_db.create_table("t")
    engine = Engine()
    legacy_db.bind_engine(engine)

    def run_legacy(op, *args):
        return _op_tuple(engine.run(getattr(legacy_db, op + "_proc")(*args)))

    client = PolarStore.open(dict(CONFIG_DOC, engine={"enabled": True}))
    client.create_table("t")

    def run_client(op, *args):
        return _op_tuple(getattr(client, op)(*args))

    assert _dml_script(run_legacy) == _dml_script(run_client)
    assert client.now_us == engine.now_us


def test_volume_page_io_matches_legacy_exactly():
    volume = StorageVolume(NodeConfig(), volume_bytes=32 * MiB, seed=3)
    now = 0.0
    legacy = []
    for page_no in range(8):
        committed = volume.write_page(now, page_no, bytes([page_no]) * 4096)
        now = committed.commit_us
        legacy.append((committed.commit_us, committed.prepared.device_bytes))
    read = volume.read_page(now, 5)
    legacy.append((read.done_us, len(read.data)))

    client = PolarStore.open(CONFIG_DOC)
    observed = []
    for page_no in range(8):
        committed = client.write_page(page_no, bytes([page_no]) * 4096)
        observed.append(
            (committed.commit_us, committed.prepared.device_bytes)
        )
    read = client.read_page(5)
    observed.append((read.done_us, len(read.data)))
    assert observed == legacy


def test_ro_node_select_routing_matches_legacy():
    legacy_db = PolarDB(
        store=StorageVolume(NodeConfig(), volume_bytes=32 * MiB, seed=3)
    )
    legacy_db.create_table("t")
    now = legacy_db.insert(0.0, "t", 1, b"row").done_us
    legacy = legacy_db.select(now, "t", 1, ro_index=0)

    client = PolarStore.open(CONFIG_DOC)
    client.create_table("t")
    client.insert("t", 1, b"row")
    observed = client.select("t", 1, ro_index=0)
    assert _op_tuple(observed) == _op_tuple(legacy)


def test_bulk_load_and_checkpoint_match_legacy():
    rows = [(k, bytes([k % 3]) * 48) for k in range(64)]
    legacy_db = PolarDB(
        store=StorageVolume(NodeConfig(), volume_bytes=32 * MiB, seed=3)
    )
    legacy_db.create_table("t")
    loaded = legacy_db.bulk_load(0.0, "t", rows)
    legacy_done = legacy_db.checkpoint(loaded)

    client = PolarStore.open(CONFIG_DOC)
    client.create_table("t")
    client.bulk_load("t", rows)
    assert client.checkpoint() == legacy_done


def test_open_accepts_config_dict_kwargs_and_none():
    assert PolarStore.open().sharded is False
    assert PolarStore.open(ReproConfig()).sharded is False
    assert PolarStore.open({"cluster": {"shards": 2}}).sharded is True
    assert PolarStore.open(cluster={"shards": 2}).sharded is True


def test_open_rejects_mixed_and_bad_usage():
    with pytest.raises(TypeError, match="PolarStore.open"):
        PolarStore()
    with pytest.raises(ValueError, match="not both"):
        PolarStore.open({"cluster": {"shards": 2}}, store={})
    with pytest.raises(ValueError, match="replace"):
        PolarStore.open(ReproConfig(), store={})
    with pytest.raises(TypeError, match="ReproConfig"):
        PolarStore.open(42)


def test_single_volume_client_surface():
    client = PolarStore.open(CONFIG_DOC)
    assert client.engine is None
    assert client.store is client.db.store
    assert client.metrics is client.db.metrics
    with pytest.raises(ReproError, match="shards"):
        client.rebalance()


def test_sharded_client_surface():
    client = PolarStore.open(cluster={"shards": 2}, engine={"enabled": True})
    assert client.sharded
    assert client.engine is client.runtime.engine
    with pytest.raises(ReproError, match="single volume"):
        client.store
    # Adopting a foreign engine is refused; the runtime's own is a no-op.
    with pytest.raises(ReproError, match="engine"):
        client.bind_engine(Engine())
    client.bind_engine(client.engine)


def test_client_works_with_sysbench_driver():
    from repro.workloads.sysbench import prepare_table, run_sysbench

    client = PolarStore.open(CONFIG_DOC)
    loaded = prepare_table(client, rows=80, seed=0)
    result = run_sysbench(
        client, "point_select", duration_s=0.01, threads=2,
        key_range=80, start_us=loaded, seed=0,
    )
    assert result.transactions > 0

    legacy_db = build_db(ReproConfig.from_dict(CONFIG_DOC))
    loaded_legacy = prepare_table(legacy_db, rows=80, seed=0)
    legacy = run_sysbench(
        legacy_db, "point_select", duration_s=0.01, threads=2,
        key_range=80, start_us=loaded_legacy, seed=0,
    )
    assert loaded == loaded_legacy
    assert result.transactions == legacy.transactions
    assert result.tps == legacy.tps
