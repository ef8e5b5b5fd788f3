"""WallClockBridge: admission, determinism, error containment."""

import pytest

from repro.engine import Engine, WallClockBridge


def _op(engine, work_us):
    """A toy op: sleep ``work_us`` of simulated time, return it."""
    yield engine.sleep_until(engine.now_us + work_us)
    return work_us


def _run_stream(window, arrivals, work_us=100.0):
    """Submit one op per arrival; returns (decisions, completions)."""
    engine = Engine()
    bridge = WallClockBridge(engine, window=window)
    decisions = []
    completions = []
    for token, arrival in enumerate(arrivals):
        decision = bridge.submit(
            token, arrival, lambda: _op(engine, work_us)
        )
        decisions.append((decision.admitted, decision.queue_depth))
        completions.extend(
            (c.token, c.done_us, c.latency_us) for c in decision.completions
        )
    completions.extend(
        (c.token, c.done_us, c.latency_us) for c in bridge.flush()
    )
    return decisions, completions


def test_all_admitted_under_light_load():
    # Arrivals far apart: each op finishes before the next arrives.
    decisions, completions = _run_stream(4, [0.0, 500.0, 1000.0])
    assert [d[0] for d in decisions] == [True, True, True]
    assert [d[1] for d in decisions] == [0, 0, 0]
    assert [c[0] for c in completions] == [0, 1, 2]
    assert all(latency == 100.0 for _, _, latency in completions)


def test_window_rejects_when_full():
    # Four simultaneous arrivals into a window of 2: two admitted, two
    # rejected; rejected ops never touch the engine.
    decisions, completions = _run_stream(2, [0.0, 0.0, 0.0, 0.0])
    assert [d[0] for d in decisions] == [True, True, False, False]
    assert [d[1] for d in decisions] == [0, 1, 2, 2]
    assert [c[0] for c in completions] == [0, 1]


def test_overlapping_ops_complete_on_later_drains():
    # Second arrival lands mid-flight of the first; the first's
    # completion is delivered by the third submit's drain.
    decisions, completions = _run_stream(
        8, [0.0, 50.0, 200.0], work_us=100.0
    )
    assert [d[1] for d in decisions] == [0, 1, 0]
    assert [c[0] for c in completions] == [0, 1, 2]
    assert completions[0][1] == 100.0  # done at its own pace
    assert completions[1][1] == 150.0


def test_simulated_outcome_is_deterministic():
    arrivals = [float(i * 13 % 40) + i for i in range(50)]
    arrivals.sort()
    first = _run_stream(4, arrivals)
    second = _run_stream(4, arrivals)
    assert first == second


def test_guard_contains_per_op_errors():
    engine = Engine()
    bridge = WallClockBridge(engine, window=4)

    def boom():
        yield engine.sleep_until(engine.now_us + 10.0)
        raise RuntimeError("op exploded")

    def fine():
        yield engine.sleep_until(engine.now_us + 10.0)
        return "ok"

    bridge.submit(0, 0.0, boom)
    bridge.submit(1, 0.0, fine)
    completions = bridge.flush()
    by_token = {c.token: c for c in completions}
    assert not by_token[0].ok
    assert isinstance(by_token[0].error, RuntimeError)
    assert by_token[1].ok
    assert by_token[1].result == "ok"
    # The failed op neither poisons the engine nor later submissions.
    bridge.submit(2, 50.0, fine)
    assert [c.token for c in bridge.flush()] == [2]


def test_duplicate_token_rejected():
    engine = Engine()
    bridge = WallClockBridge(engine, window=4)
    bridge.submit(0, 0.0, lambda: _op(engine, 1000.0))
    with pytest.raises(ValueError, match="duplicate"):
        bridge.submit(0, 1.0, lambda: _op(engine, 1000.0))


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        WallClockBridge(Engine(), window=0)


def test_bridge_counts_admissions():
    engine = Engine()
    bridge = WallClockBridge(engine, window=1)
    bridge.submit(0, 0.0, lambda: _op(engine, 100.0))
    bridge.submit(1, 0.0, lambda: _op(engine, 100.0))  # window full
    bridge.flush()
    assert bridge.admitted == 1 and bridge.rejected == 1
    assert bridge.completed == 1 and bridge.queue_depth == 0
