"""Fault injection (Fig 8) and host-FTL accounting (§4.1.1)."""

import numpy as np
import pytest

from repro.common.units import GiB
from repro.csd.faults import (
    POLARCSD1_FAULTS,
    POLARCSD2_FAULTS,
    FaultCause,
    FaultProfile,
)
from benchmarks.ablation.host_ftl import (
    CPU_CORES_PER_DEVICE,
    contention_risk,
    host_ftl_footprint,
)
from repro.csd.specs import POLARCSD1, POLARCSD2


def _tail_fraction(profile, n, is_read, threshold_us=4000.0, seed=0):
    rng = np.random.default_rng(seed)
    extra = profile.sample_extra_us(rng, n, is_read)
    return float((extra > threshold_us).mean())


def test_gen1_tail_is_roughly_37x_gen2():
    """Figure 8: PolarCSD1.0 shows ~36.7× more ≥4 ms reads and ~38.8× more
    ≥4 ms writes than PolarCSD2.0."""
    n = 4_000_000
    gen1_read = _tail_fraction(POLARCSD1_FAULTS, n, is_read=True)
    gen2_read = _tail_fraction(POLARCSD2_FAULTS, n, is_read=True)
    gen1_write = _tail_fraction(POLARCSD1_FAULTS, n, is_read=False)
    gen2_write = _tail_fraction(POLARCSD2_FAULTS, n, is_read=False)
    assert gen2_read > 0
    assert gen2_write > 0
    assert 10 < gen1_read / gen2_read < 120
    assert 10 < gen1_write / gen2_write < 120


def test_gen2_absolute_rates_land_near_paper():
    n = 8_000_000
    read = _tail_fraction(POLARCSD2_FAULTS, n, is_read=True)
    write = _tail_fraction(POLARCSD2_FAULTS, n, is_read=False)
    # Paper: 7.91e-7 reads, 1.05e-6 writes; allow generous sampling slack.
    assert 1e-7 < read < 5e-6
    assert 2e-7 < write < 6e-6


def test_spikes_are_rare():
    rng = np.random.default_rng(1)
    extra = POLARCSD1_FAULTS.sample_extra_us(rng, 100_000, is_read=True)
    assert (extra > 0).mean() < 1e-3


def test_sample_one_matches_vector_api():
    rng = np.random.default_rng(2)
    value = POLARCSD1_FAULTS.sample_one_us(rng, is_read=True)
    assert value >= 0.0


def test_host_ftl_footprint_matches_paper():
    footprint = host_ftl_footprint(POLARCSD1, devices=12)
    assert footprint.dram_gib == pytest.approx(184.32, rel=1e-6)
    assert footprint.cpu_cores == 12 * CPU_CORES_PER_DEVICE == 24


def test_device_managed_ftl_has_no_host_footprint():
    footprint = host_ftl_footprint(POLARCSD2, devices=12)
    assert footprint.dram_bytes == 0
    assert footprint.cpu_cores == 0


def test_contention_risk_monotone_in_devices():
    host_dram = 256 * GiB
    host_cores = 32
    small = contention_risk(host_ftl_footprint(POLARCSD1, 6), host_dram, host_cores)
    large = contention_risk(host_ftl_footprint(POLARCSD1, 12), host_dram, host_cores)
    assert small < large
    assert large > 0.7  # 12 gen-1 devices nearly exhaust a 256 GiB host


def test_contention_risk_validates_inputs():
    footprint = host_ftl_footprint(POLARCSD1, 1)
    with pytest.raises(ValueError):
        contention_risk(footprint, 0, 10)


# -- sample_extra_us edge cases ------------------------------------------------


def _profile(read_p, write_p=None, median_us=5_000.0):
    write_p = read_p if write_p is None else write_p
    return FaultProfile(
        name="edge",
        read_causes=(FaultCause("r", read_p, median_us=median_us, sigma=0.5),),
        write_causes=(
            FaultCause("w", write_p, median_us=median_us, sigma=0.5),
        ),
    )


def test_sample_extra_us_count_zero_returns_empty():
    profile = _profile(0.5)
    for is_read in (True, False):
        extra = profile.sample_extra_us(
            np.random.default_rng(0), 0, is_read
        )
        assert extra.shape == (0,)
        assert extra.sum() == 0.0


def test_sample_extra_us_probability_zero_never_spikes():
    profile = _profile(0.0)
    extra = profile.sample_extra_us(np.random.default_rng(0), 4096, True)
    assert not extra.any()


def test_sample_extra_us_probability_one_always_spikes():
    profile = _profile(1.0)
    extra = profile.sample_extra_us(np.random.default_rng(0), 1024, False)
    assert (extra > 0.0).all()
    # Lognormal around the median: the sample median lands near it.
    assert 2_500.0 < float(np.median(extra)) < 10_000.0


def test_sample_extra_us_deterministic_under_fixed_seed():
    profile = _profile(0.3)
    a = profile.sample_extra_us(np.random.default_rng(9), 512, True)
    b = profile.sample_extra_us(np.random.default_rng(9), 512, True)
    assert np.array_equal(a, b)


def test_read_and_write_causes_are_independent():
    profile = _profile(read_p=1.0, write_p=0.0)
    rng = np.random.default_rng(0)
    assert profile.sample_extra_us(rng, 64, True).all()
    assert not profile.sample_extra_us(rng, 64, False).any()
