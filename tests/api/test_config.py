"""The typed configuration tree (repro.api.config)."""

import dataclasses

import pytest

from repro.api.config import (
    NetSection,
    NodeConfig,
    ReproConfig,
    StoreSection,
    resolve_spec,
)
from repro.common.units import MiB
from repro.csd.specs import OPTANE_P5800X, POLARCSD2


def test_defaults_validate():
    config = ReproConfig()
    assert config.validate() is config
    assert config.cluster.shards == 0
    assert config.store.node.software_compression is not None


def test_dict_round_trip():
    config = ReproConfig.from_dict({
        "store": {"volume_bytes": 32 * MiB, "seed": 7},
        "engine": {"enabled": True, "defer_gc": True},
        "cluster": {"shards": 3},
        "net": {"window": 8},
    })
    assert config.store.volume_bytes == 32 * MiB
    assert config.engine.defer_gc is True
    assert config.cluster.shards == 3
    assert config.net.window == 8
    # to_dict -> from_dict is the identity.
    assert ReproConfig.from_dict(config.to_dict()) == config


def test_partial_dict_keeps_defaults():
    config = ReproConfig.from_dict({"cluster": {"shards": 2}})
    assert config.store.volume_bytes == ReproConfig().store.volume_bytes
    assert config.net.window == NetSection().window


def test_nested_node_config_from_dict():
    config = ReproConfig.from_dict({
        "store": {"node": {"software_compression": False}},
    })
    assert isinstance(config.store.node, NodeConfig)
    assert config.store.node.software_compression is False


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown config sections"):
        ReproConfig.from_dict({"storage": {}})


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="store"):
        ReproConfig.from_dict({"store": {"volume_byte": 1}})


def test_unknown_node_key_rejected():
    with pytest.raises(ValueError, match="store.node"):
        ReproConfig.from_dict({"store": {"node": {"not_a_switch": True}}})


def test_single_shard_is_ambiguous():
    with pytest.raises(ValueError, match="ambiguous"):
        ReproConfig.from_dict({"cluster": {"shards": 1}})


def test_unknown_device_spec_rejected():
    with pytest.raises(ValueError, match="unknown device spec"):
        ReproConfig.from_dict({"device": {"data_spec": "P9999"}})


def test_resolve_spec_returns_device_specs():
    assert resolve_spec("POLARCSD2") is POLARCSD2
    assert resolve_spec("OPTANE_P5800X") is OPTANE_P5800X


def test_sections_are_plain_dataclasses():
    config = ReproConfig()
    doc = config.to_dict()
    assert set(doc) == {"store", "device", "engine", "db", "cluster", "net"}
    assert set(doc["engine"]) == {"enabled", "defer_gc"}
    # Every leaf is JSON-able (asdict flattened the NodeConfig too).
    assert isinstance(doc["store"]["node"], dict)


def test_perf_unknown_key_rejected():
    # The codec memo has no settings: the section that used to switch
    # it is an unknown section like any other typo.
    with pytest.raises(ValueError, match="unknown config sections.*perf"):
        ReproConfig.from_dict({"perf": {"enabled": True}})


def test_removed_consolidation_section_rejected():
    # Every volume runs Opt#3's per-page log: the section that chose a
    # policy for it is an unknown section like any other typo.
    with pytest.raises(
        ValueError, match="unknown config sections.*consolidation"
    ):
        ReproConfig.from_dict({"consolidation": {"policy": "leveled"}})


@pytest.mark.parametrize(
    "key, value", [("qd", 4), ("group_commit_window_us", 25.0)]
)
def test_removed_engine_keys_rejected(key, value):
    with pytest.raises(
        ValueError, match=f"unknown keys in config section 'engine'.*{key}"
    ):
        ReproConfig.from_dict({"engine": {key: value}})


#: Leaves no caller outside the tests ever set; each is now a constant
#: or gone, and naming one is a typo like any other.
REMOVED_LEAVES = [
    ("cluster.consensus", True),
    ("cluster.consensus_nodes", 5),
    ("cluster.chunk_keys", 4),
    ("cluster.usage_limit", 0.9),
    ("cluster.band_width", 0.2),
    ("cluster.migration_streams", 1),
    ("cluster.max_catchup_rounds", 5),
    ("cluster.physical_fraction", 0.25),
    ("store.replicas", 5),
    ("store.node.page_cache_bytes", 1 << 20),
    ("store.node.seed", 3),
    ("store.node.default_codec", "lz4"),
    ("device.parallelism", 4),
    ("device.inject_faults", True),
    ("net.max_frame_bytes", 1024),
]


def _tree(path, value):
    """``"a.b.c", v`` -> ``{"a": {"b": {"c": v}}}``."""
    *sections, key = path.split(".")
    doc = {key: value}
    for name in reversed(sections):
        doc = {name: doc}
    return doc


@pytest.mark.parametrize("path, value", REMOVED_LEAVES)
def test_removed_leaves_rejected(path, value):
    section, key = path.rsplit(".", 1)
    with pytest.raises(
        ValueError, match=f"unknown keys in config section '{section}'.*{key}"
    ):
        ReproConfig.from_dict(_tree(path, value))


#: A leaf of the wrong type or range, each failing inside ``open`` (or,
#: for a non-empty string as a bool, silently turning the switch on)
#: before ``from_dict`` checked leaves against their annotations.
BAD_LEAVES = [
    ("engine.enabled", "no"),
    ("engine.defer_gc", 1),
    ("store.node.redo_cache_bytes", -1),
    ("store.node.redo_cache_bytes", "x"),
    ("store.node.opt_per_page_log", None),
    ("store.volume_bytes", float("nan")),
    ("store.volume_bytes", "big"),
    ("store.physical_bytes", 2.0**30),
    ("cluster.shards", 2.5),
    ("db.ro_nodes", True),
    ("device.data_spec", 5),
    ("store.node", []),
    ("store", None),
]


@pytest.mark.parametrize("path, value", BAD_LEAVES)
def test_a_bad_leaf_is_one_value_error_naming_its_path(path, value):
    with pytest.raises(ValueError, match=f"'?{path}'? must be"):
        ReproConfig.from_dict(_tree(path, value))


def test_optional_leaves_take_none_and_sections_their_dataclass():
    node = NodeConfig(opt_per_page_log=False)
    config = ReproConfig.from_dict({
        "store": {"physical_bytes": None, "node": node},
        "net": NetSection(window=8),
    })
    assert config.store.physical_bytes is None
    assert config.store.node is node
    assert config.net.window == 8


def test_per_instance_sections_do_not_alias():
    a, b = ReproConfig(), ReproConfig()
    a.cluster.shards = 5
    assert b.cluster.shards == 0
    assert a.store is not b.store


def test_replace_builds_variants():
    base = ReproConfig()
    variant = dataclasses.replace(
        base, cluster=dataclasses.replace(base.cluster, shards=2)
    )
    assert variant.validate().cluster.shards == 2
    assert base.cluster.shards == 0
