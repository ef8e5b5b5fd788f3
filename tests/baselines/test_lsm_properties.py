"""Property: Fig 16's LSM tree under generated put/delete/flush sequences.

Reads match a dict model, and after every flush (each one drains the
shared leveled rule) L0 holds at most ``l0_limit`` tables, every level
above the bottom fits its byte budget, and a level >= 1 holds one table
with no key twice.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import LBA_SIZE, MiB
from repro.compression.memo import get_codec
from repro.csd.device import PlainSSD
from repro.csd.specs import P5510
from repro.baselines.lsm import CODEC, LEVELS, LSMTree, _decode_entries

KEYS = 64

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"), st.integers(0, KEYS - 1),
            st.integers(0, 2**32 - 1), st.integers(1, 1000),
        ),
        st.tuples(st.just("delete"), st.integers(0, KEYS - 1)),
        st.tuples(st.just("flush")),
    ),
    min_size=30,
    max_size=100,
)


def make_device():
    spec = dataclasses.replace(
        P5510, logical_capacity=64 * MiB, physical_capacity=64 * MiB,
        jitter_sigma=0.0,
    )
    return PlainSSD(spec, seed=0)


def table_keys(lsm, table):
    keys = []
    for block in table.blocks:
        data = lsm.device.read(0.0, block.lba, block.n_blocks * LBA_SIZE).data
        blob = get_codec(CODEC).decompress(data[: block.payload_len])
        keys.extend(key for key, _ in _decode_entries(blob))
    return keys


def check_shape(lsm, checked):
    """``checked``: ids of the (immutable) tables already found sorted."""
    levels = lsm._levels
    assert len(levels[0]) <= LEVELS.l0_limit
    for n in range(1, len(levels)):
        assert len(levels[n]) <= 1
        if n < len(levels) - 1:
            budget = LEVELS.base_level_bytes * LEVELS.level_ratio ** (n - 1)
            assert sum(t.stored_bytes for t in levels[n]) <= budget
        for table in levels[n]:
            if table.table_id not in checked:
                keys = table_keys(lsm, table)
                assert keys == sorted(set(keys))
                checked.add(table.table_id)


@given(ops=OPS)
@settings(deadline=None)
def test_lsm_reads_match_a_dict_and_levels_keep_the_shared_rule(ops):
    # A 64-byte memtable: nearly every put flushes, so a short sequence
    # overflows L0 and cascades L1 into L2.
    lsm = LSMTree(make_device(), memtable_bytes=64)
    model = {}
    checked = set()
    now = 0.0
    for op in ops:
        if op[0] == "put":
            _, key, seed, size = op
            # Incompressible values, so L1 outgrows its budget and cascades.
            model[key] = random.Random(seed).randbytes(size)
            now = lsm.put(now, key, model[key])
        elif op[0] == "delete":
            model.pop(op[1], None)
            now = lsm.delete(now, op[1])
        else:
            now = lsm.flush_now(now)
        check_shape(lsm, checked)
    for key in range(KEYS):
        value, now = lsm.get(now, key)
        assert value == model.get(key)
    rows, _ = lsm.range(now, 0, KEYS - 1)
    assert rows == sorted(model.items())
