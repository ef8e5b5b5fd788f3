"""Unit and alignment arithmetic."""

import pytest

from repro.common.units import (
    DB_PAGE_SIZE,
    EXTENT_SIZE,
    KiB,
    LBA_SIZE,
    align_up,
    ceil_div,
    is_aligned,
)


def test_constants_are_consistent():
    assert DB_PAGE_SIZE == 16 * KiB
    assert LBA_SIZE == 4 * KiB
    assert EXTENT_SIZE == 128 * KiB
    assert DB_PAGE_SIZE % LBA_SIZE == 0
    assert EXTENT_SIZE % LBA_SIZE == 0


@pytest.mark.parametrize(
    "value,alignment,expected",
    [
        (0, 4096, 0),
        (1, 4096, 4096),
        (4096, 4096, 4096),
        (4097, 4096, 8192),
        (16 * KiB, 4 * KiB, 16 * KiB),
    ],
)
def test_align_up(value, alignment, expected):
    assert align_up(value, alignment) == expected


def test_is_aligned():
    assert is_aligned(8192, 4096)
    assert not is_aligned(8191, 4096)
    assert is_aligned(0, 4096)


def test_ceil_div():
    assert ceil_div(0, 4) == 0
    assert ceil_div(1, 4) == 1
    assert ceil_div(4, 4) == 1
    assert ceil_div(5, 4) == 2


def test_bad_alignment_rejected():
    with pytest.raises(ValueError):
        align_up(1, 0)
    with pytest.raises(ValueError):
        is_aligned(1, 0)
    with pytest.raises(ValueError):
        ceil_div(1, 0)
