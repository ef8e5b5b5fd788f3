"""The unified amplification accountant (storage.amp.* gauges)."""

import pytest

from repro.obs.amp import (
    READ_AMP_GAUGE,
    SPACE_AMP_GAUGE,
    WRITE_AMP_GAUGE,
    AmplificationAccountant,
    read_amp,
    space_amp,
    write_amp,
)
from repro.obs.metrics import MetricsRegistry


def test_ratio_helpers_define_the_units():
    assert write_amp(100, 250) == 2.5
    assert space_amp(100, 150) == 1.5
    assert read_amp(4, 10) == 2.5
    # Nothing happened yet -> neutral 1.0, never a ZeroDivisionError.
    assert write_amp(0, 0) == 1.0
    assert space_amp(0, 999) == 1.0
    assert read_amp(0, 0) == 1.0


def test_accountant_exports_live_gauges():
    metrics = MetricsRegistry()
    state = {"user": 0, "nand": 0, "live": 0, "stored": 0,
             "ureads": 0, "dreads": 0}
    AmplificationAccountant(
        metrics,
        user_write_bytes=lambda: state["user"],
        physical_write_bytes=lambda: state["nand"],
        live_bytes=lambda: state["live"],
        stored_bytes=lambda: state["stored"],
        user_reads=lambda: state["ureads"],
        device_reads=lambda: state["dreads"],
        policy="leveled",
    )
    wa = metrics.get(WRITE_AMP_GAUGE, policy="leveled")
    sa = metrics.get(SPACE_AMP_GAUGE, policy="leveled")
    ra = metrics.get(READ_AMP_GAUGE, policy="leveled")
    assert wa is not None and sa is not None and ra is not None
    assert (wa.value, sa.value, ra.value) == (1.0, 1.0, 1.0)
    state.update(user=100, nand=320, live=50, stored=200, ureads=2, dreads=9)
    # Gauges are callback-backed: they read the live state, no push step.
    assert wa.value == 3.2
    assert sa.value == 4.0
    assert ra.value == 4.5
    names = {i.name for i in metrics.instruments()}
    assert {WRITE_AMP_GAUGE, SPACE_AMP_GAUGE, READ_AMP_GAUGE} <= names


def test_accountant_skips_gauges_without_sources():
    metrics = MetricsRegistry()
    accountant = AmplificationAccountant(
        metrics,
        user_write_bytes=lambda: 10,
        physical_write_bytes=lambda: 30,
    )
    assert metrics.get(WRITE_AMP_GAUGE) is not None
    assert metrics.get(SPACE_AMP_GAUGE) is None
    assert metrics.get(READ_AMP_GAUGE) is None
    assert accountant.write_amplification() == 3.0
    with pytest.raises(TypeError):
        accountant.space_amplification()
