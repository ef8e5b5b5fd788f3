"""Fault plans, rules, injectors, and the corruption ledger."""

import pytest

from repro.chaos.plan import (
    TORN_WRITE_PREFIX,
    DeviceInjector,
    FaultKind,
    FaultLedger,
    FaultPlan,
    FaultRule,
)
from repro.common.errors import DeviceUnavailableError
from repro.common.units import LBA_SIZE


def make_injector(seed, label, *rules) -> DeviceInjector:
    plan = FaultPlan(seed=seed)
    for rule in rules:
        plan.add(rule)
    return plan.injector_for(label)


def drive(injector, writes=40, payload=b"\xa5" * (4 * LBA_SIZE)):
    """Feed a fixed write sequence; return the injector's decisions."""
    out = []
    for i in range(writes):
        out.append(injector.on_write(float(i) * 100.0, i * 4, payload))
    return out


# -- determinism ---------------------------------------------------------------


def test_same_seed_and_label_replays_identical_faults():
    def build():
        return make_injector(
            77, "node-0:data",
            FaultRule(FaultKind.BIT_FLIP, probability=0.3),
            FaultRule(FaultKind.DROPPED_WRITE, probability=0.2),
            FaultRule(FaultKind.SLOW_IO, probability=0.2, slow_us=5000.0),
        )

    a, b = drive(build()), drive(build())
    assert a == b
    # And the sequence is non-trivial: at least one fault actually fired.
    assert any(data != b"\xa5" * (4 * LBA_SIZE) for _, data, _ in a)


def test_different_labels_draw_independent_streams():
    rule = lambda: FaultRule(FaultKind.BIT_FLIP, probability=0.5)
    a = drive(make_injector(77, "node-0:data", rule()))
    b = drive(make_injector(77, "node-1:data", rule()))
    assert a != b


def test_different_seeds_draw_independent_streams():
    rule = lambda: FaultRule(FaultKind.BIT_FLIP, probability=0.5)
    a = drive(make_injector(1, "node-0:data", rule()))
    b = drive(make_injector(2, "node-0:data", rule()))
    assert a != b


# -- fault mechanics -----------------------------------------------------------


def test_bit_flip_changes_exactly_one_bit():
    inj = make_injector(
        5, "n:data", FaultRule(FaultKind.BIT_FLIP, max_count=1)
    )
    payload = bytes(range(256)) * 16
    lba, data, _ = inj.on_write(0.0, 8, payload)
    assert lba == 8
    diff = [
        (x ^ y) for x, y in zip(payload, data) if x != y
    ]
    assert len(diff) == 1
    assert bin(diff[0]).count("1") == 1


def test_torn_write_keeps_prefix_zeroes_rest():
    inj = make_injector(
        5, "n:data", FaultRule(FaultKind.TORN_WRITE, max_count=1)
    )
    payload = b"\xff" * (4 * LBA_SIZE)
    _, data, _ = inj.on_write(0.0, 0, payload)
    assert data[:TORN_WRITE_PREFIX] == payload[:TORN_WRITE_PREFIX]
    assert data[TORN_WRITE_PREFIX:] == b"\x00" * (
        len(payload) - TORN_WRITE_PREFIX
    )


def test_dropped_write_persists_nothing():
    inj = make_injector(
        5, "n:data", FaultRule(FaultKind.DROPPED_WRITE, max_count=1)
    )
    _, data, _ = inj.on_write(0.0, 0, b"\x11" * LBA_SIZE)
    assert data is None


def test_misdirected_write_lands_nearby_and_marks_both_ranges():
    inj = make_injector(
        5, "n:data", FaultRule(FaultKind.MISDIRECTED_WRITE, max_count=1)
    )
    lba, data, _ = inj.on_write(0.0, 40, b"\x22" * LBA_SIZE)
    assert 41 <= lba <= 48
    assert data == b"\x22" * LBA_SIZE
    ledger = inj.plan.ledger
    assert ledger.kind_for_node("n", 40, 1) is FaultKind.MISDIRECTED_WRITE
    assert ledger.kind_for_node("n", lba, 1) is FaultKind.MISDIRECTED_WRITE


def test_slow_io_adds_bounded_extra_service_time():
    inj = make_injector(
        5, "n:data",
        FaultRule(FaultKind.SLOW_IO, probability=1.0, slow_us=6000.0),
    )
    extra = inj.on_read(0.0, 0, LBA_SIZE)
    assert 3000.0 <= extra <= 9000.0
    _, _, wextra = inj.on_write(0.0, 0, b"\x00" * LBA_SIZE)
    assert 3000.0 <= wextra <= 9000.0


def test_device_fail_raises_only_inside_window():
    inj = make_injector(
        5, "n:data",
        FaultRule(FaultKind.DEVICE_FAIL, from_us=100.0, until_us=200.0),
    )
    inj.begin_io(50.0)
    with pytest.raises(DeviceUnavailableError):
        inj.begin_io(150.0)
    inj.begin_io(250.0)


# -- rule gating ---------------------------------------------------------------


def test_time_window_gates_injection():
    inj = make_injector(
        5, "n:data",
        FaultRule(FaultKind.DROPPED_WRITE, from_us=100.0, until_us=200.0),
    )
    assert inj.on_write(50.0, 0, b"\x00" * LBA_SIZE)[1] is not None
    assert inj.on_write(150.0, 0, b"\x00" * LBA_SIZE)[1] is None
    assert inj.on_write(250.0, 0, b"\x00" * LBA_SIZE)[1] is not None


def test_lba_range_gates_injection():
    inj = make_injector(
        5, "n:data",
        FaultRule(FaultKind.DROPPED_WRITE, lba_lo=100, lba_hi=200),
    )
    assert inj.on_write(0.0, 10, b"\x00" * LBA_SIZE)[1] is not None
    assert inj.on_write(0.0, 150, b"\x00" * LBA_SIZE)[1] is None
    # Overlap counts: a write straddling the range boundary qualifies.
    assert inj.on_write(0.0, 99, b"\x00" * (2 * LBA_SIZE))[1] is None


def test_max_count_exhausts_the_rule():
    inj = make_injector(
        5, "n:data", FaultRule(FaultKind.DROPPED_WRITE, max_count=2)
    )
    dropped = sum(
        1 for _, data, _ in drive(inj, writes=10) if data is None
    )
    assert dropped == 2


def test_every_n_fires_on_the_nth_io_only():
    inj = make_injector(
        5, "n:data", FaultRule(FaultKind.DROPPED_WRITE, every_n=4)
    )
    dropped = []
    for i in range(8):
        # Mirror BlockDevice's call order: begin_io advances the device's
        # I/O index, then on_write consults the rules.
        inj.begin_io(float(i))
        _, data, _ = inj.on_write(float(i), i * 4, b"\x00" * LBA_SIZE)
        if data is None:
            dropped.append(i)
    assert len(dropped) == 2


def test_scope_is_rechecked_live():
    rule = FaultRule(FaultKind.DROPPED_WRITE, scope="n:data")
    inj = make_injector(5, "n:data", rule)
    assert inj.on_write(0.0, 0, b"\x00" * LBA_SIZE)[1] is None
    # Retargeting the rule at another device disarms this injector.
    rule.scope = "other:data"
    assert inj.on_write(0.0, 0, b"\x00" * LBA_SIZE)[1] is not None


def test_injection_is_counted():
    plan = FaultPlan(seed=5)
    plan.add(FaultRule(FaultKind.DROPPED_WRITE, max_count=3))
    inj = plan.injector_for("n:data")
    drive(inj, writes=10)
    assert plan.injected == {"dropped_write": 3}
    assert sum(plan.injected.values()) == 3


# -- the ledger ----------------------------------------------------------------


def test_ledger_attributes_and_clears():
    ledger = FaultLedger()
    ledger.record("node-0:data", 10, 4, FaultKind.BIT_FLIP)
    assert len(ledger) == 4
    assert ledger.kind_for_node("node-0", 12, 1) is FaultKind.BIT_FLIP
    assert ledger.kind_for_node("node-0", 14, 1) is None
    assert ledger.kind_for_node("node-1", 12, 1) is None
    ledger.clear("node-0:data", 10, 4)
    assert len(ledger) == 0


def test_ledger_checks_both_device_roles():
    ledger = FaultLedger()
    ledger.record("node-0:perf", 5, 1, FaultKind.TORN_WRITE)
    assert ledger.kind_for_node("node-0", 5, 1) is FaultKind.TORN_WRITE
    ledger.clear_node("node-0", 5, 1)
    assert ledger.kind_for_node("node-0", 5, 1) is None


def test_clean_overwrite_heals_ledger_entries():
    plan = FaultPlan(seed=5)
    plan.add(FaultRule(FaultKind.BIT_FLIP, max_count=1))
    inj = plan.injector_for("n:data")
    inj.on_write(0.0, 0, b"\x00" * LBA_SIZE)
    assert len(plan.ledger) == 1
    # The rule is exhausted, so the next write is clean and heals.
    inj.on_write(0.0, 0, b"\x00" * LBA_SIZE)
    assert len(plan.ledger) == 0


def test_quiesce_closes_every_window():
    plan = FaultPlan(seed=5)
    plan.add(FaultRule(FaultKind.BIT_FLIP, probability=1.0))
    plan.add(FaultRule(FaultKind.SLOW_IO, probability=1.0))
    inj = plan.injector_for("n:data")
    plan.quiesce(1000.0)
    lba, data, extra = inj.on_write(2000.0, 0, b"\x00" * LBA_SIZE)
    assert data == b"\x00" * LBA_SIZE and extra == 0.0
