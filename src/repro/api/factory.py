"""Config-driven constructors: the one place the stack gets wired.

Everything :meth:`repro.api.PolarStore.open` returns is built here from a
:class:`~repro.api.config.ReproConfig`.  The constructors it wraps
(``repro.storage.store.build_node``/``PolarStore(...)``,
``repro.db.database.PolarDB(...)`` with hand-threaded kwargs) stay
importable from their own modules for call sites that wire by hand.
"""

from __future__ import annotations

import dataclasses

from repro.api.config import ReproConfig, resolve_spec


def build_store(config: ReproConfig, seed_offset: int = 0):
    """One replicated :class:`~repro.storage.store.PolarStore` volume."""
    from repro.storage.store import PolarStore

    store_cfg = config.store
    device_cfg = config.device
    return PolarStore(
        # Each volume owns its NodeConfig instance so per-volume mutation
        # (tests flipping switches) cannot leak across shards.
        config=dataclasses.replace(store_cfg.node),
        data_spec=resolve_spec(device_cfg.data_spec),
        perf_spec=resolve_spec(device_cfg.perf_spec),
        volume_bytes=store_cfg.volume_bytes,
        physical_bytes=store_cfg.physical_bytes,
        seed=store_cfg.seed + seed_offset,
    )


def build_db(config: ReproConfig):
    """A :class:`~repro.db.database.PolarDB` instance on a fresh volume."""
    from repro.db.database import PolarDB

    return PolarDB(
        store=build_store(config),
        buffer_pool_pages=config.db.buffer_pool_pages,
        ro_nodes=config.db.ro_nodes,
    )


def build_cluster(config: ReproConfig):
    """A sharded :class:`~repro.cluster.runtime.ClusterRuntime`."""
    from repro.cluster.runtime import ClusterRuntime

    return ClusterRuntime(config)
