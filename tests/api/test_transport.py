"""The Transport seam: capability gating and LocalTransport dispatch
(the op table both transports read is covered in ``test_op_table``)."""

import pytest

from repro.api import ReproConfig
from repro.api.transport import (
    LocalTransport,
    Transport,
    TransportCapabilityError,
)
from repro.common.errors import ReproError


def test_abstract_transport_gates_in_process_capabilities():
    transport = Transport()
    for attr in ("config", "db", "runtime", "store", "engine", "metrics"):
        with pytest.raises(TransportCapabilityError, match="abstract"):
            getattr(transport, attr)


def test_local_transport_engine_dispatch_and_cursor():
    transport = LocalTransport(
        ReproConfig.from_dict({"engine": {"enabled": True}})
    )
    assert transport.kind == "local"
    assert not transport.sharded
    assert transport.engine is not None
    transport.call("create_table", "t")
    insert = transport.call("insert", "t", 1, b"v" * 32)
    assert transport.now_us >= insert.done_us
    before = transport.now_us
    transport.advance_to(before + 1000.0)
    assert transport.now_us == before + 1000.0
    assert transport.advance_to(0.0) == before + 1000.0  # never backward
    select = transport.call("select", "t", 1)
    assert select.value == b"v" * 32


def test_local_transport_sync_dispatch_without_engine():
    transport = LocalTransport(ReproConfig.from_dict({}))
    assert transport.engine is None
    transport.call("create_table", "t")
    transport.call("insert", "t", 7, b"x")
    assert transport.call("select", "t", 7).value == b"x"
    logical, physical = transport.call("space")
    assert logical >= 0 and physical >= 0


def test_unknown_op_rejected():
    transport = LocalTransport(ReproConfig.from_dict({}))
    with pytest.raises(ReproError, match="unknown transport op"):
        transport.call("drop_database")


def test_describe_reports_deployment_shape():
    local = LocalTransport(
        ReproConfig.from_dict({"engine": {"enabled": True}})
    )
    doc = local.describe()
    assert doc["kind"] == "local"
    assert doc["engine"] is True
    assert doc["sharded"] is False


def test_sharded_local_transport_routes_and_guards():
    transport = LocalTransport(
        ReproConfig.from_dict({"cluster": {"shards": 2}})
    )
    assert transport.sharded
    assert transport.runtime is not None
    transport.call("create_table", "t")
    transport.call("insert", "t", 5, b"row")
    assert transport.call("select", "t", 5).value == b"row"
    with pytest.raises(ReproError, match="no single volume"):
        transport.store
    with pytest.raises(ReproError, match="bound to its runtime"):
        transport.adopt_engine(object())
    transport.adopt_engine(transport.engine)  # same kernel: no-op


def test_adopt_engine_binds_single_volume_deployment():
    from repro.engine import Engine

    transport = LocalTransport(ReproConfig.from_dict({}))
    assert transport.engine is None
    engine = Engine()
    transport.adopt_engine(engine)
    assert transport.engine is engine
    transport.call("create_table", "t")
    result = transport.call("insert", "t", 1, b"v")
    assert result.done_us > 0


def test_close_is_idempotent():
    transport = LocalTransport(ReproConfig.from_dict({}))
    transport.close()
    transport.close()
    assert transport.db is None and transport.engine is None
