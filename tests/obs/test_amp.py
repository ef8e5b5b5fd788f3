"""The unified amplification accountant."""

import pytest

from repro.obs.amp import AmplificationAccountant, read_amp, space_amp, write_amp


def test_ratio_helpers_define_the_units():
    assert write_amp(100, 250) == 2.5
    assert space_amp(100, 150) == 1.5
    assert read_amp(4, 10) == 2.5
    # Nothing happened yet -> neutral 1.0, never a ZeroDivisionError.
    assert write_amp(0, 0) == 1.0
    assert space_amp(0, 999) == 1.0
    assert read_amp(0, 0) == 1.0


def _accountant(state):
    return AmplificationAccountant(
        user_write_bytes=lambda: state["user"],
        physical_write_bytes=lambda: state["nand"],
        live_bytes=lambda: state["live"],
        stored_bytes=lambda: state["stored"],
        user_reads=lambda: state["ureads"],
        device_reads=lambda: state["dreads"],
    )


def test_accountant_exports_live_gauges():
    """The three ratio methods are the accountant's live readouts."""
    state = {"user": 0, "nand": 0, "live": 0, "stored": 0,
             "ureads": 0, "dreads": 0}
    accountant = _accountant(state)
    ratios = (
        accountant.write_amplification,
        accountant.space_amplification,
        accountant.read_amplification,
    )
    assert [ratio() for ratio in ratios] == [1.0, 1.0, 1.0]
    state.update(user=100, nand=320, live=50, stored=200, ureads=2, dreads=9)
    # The sources are callables: the ratios read the live state, no push.
    assert [ratio() for ratio in ratios] == [3.2, 4.0, 4.5]


def test_accountant_skips_gauges_without_sources():
    """Every source is required: a partial accountant is refused up front."""
    with pytest.raises(TypeError):
        AmplificationAccountant(
            user_write_bytes=lambda: 10, physical_write_bytes=lambda: 30,
        )
    state = {"user": 10, "nand": 30, "live": 0, "stored": 0,
             "ureads": 0, "dreads": 0}
    accountant = _accountant(state)
    assert accountant.write_amplification() == 3.0
    # Sources that stay at zero read as the neutral 1.0, never an error.
    assert accountant.space_amplification() == 1.0
    assert accountant.read_amplification() == 1.0
