"""Simulated clock and contention resources."""

import pytest

from repro.common.clock import SimClock
from repro.engine.resources import Resource


def test_clock_starts_at_zero_and_advances():
    clock = SimClock()
    assert clock.now_us == 0.0
    assert clock.advance_to(12.5) == 12.5
    assert clock.now_us == 12.5


def test_clock_advance_to_never_goes_backwards():
    clock = SimClock()
    clock.advance_to(100.0)
    clock.advance_to(50.0)
    assert clock.now_us == 100.0
    clock.advance_to(150.0)
    assert clock.now_us == 150.0


def test_resource_serves_idle_request_immediately():
    res = Resource("disk")
    assert res.serve(start_us=10.0, service_us=5.0) == 15.0


def test_resource_queues_back_to_back_requests():
    res = Resource("disk")
    first = res.serve(0.0, 10.0)
    second = res.serve(2.0, 10.0)  # arrives while busy
    assert first == 10.0
    assert second == 20.0  # waits for the first to finish


def test_resource_idle_gap_not_counted_busy():
    """A request arriving after an idle gap starts at its arrival: the
    gap is not booked as service."""
    res = Resource("disk")
    assert res.serve(0.0, 5.0) == 5.0
    assert res.serve(100.0, 5.0) == 105.0


def test_resource_rejects_negative_service():
    with pytest.raises(ValueError):
        Resource().serve(0.0, -1.0)


def test_pool_spreads_load_across_servers():
    pool = Resource("nand", servers=2)
    first = pool.serve(0.0, 10.0)
    second = pool.serve(0.0, 10.0)  # goes to the second, idle server
    third = pool.serve(0.0, 10.0)  # must queue
    assert first == 10.0
    assert second == 10.0
    assert third == 20.0


def test_pool_requires_positive_servers():
    with pytest.raises(ValueError):
        Resource("x", servers=0)
