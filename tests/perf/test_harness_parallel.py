"""The perf harness's parallel leg (fan-out scenarios only), its error
containment, and the parallel regression gates."""

import pytest

from repro.perf import harness as ph
from repro.perf.harness import (
    REGRESSION_TOLERANCE,
    ScenarioRun,
    check_regression,
    run_harness,
)


def _fake_scenario(fingerprint="fp-ok"):
    def fn(quick=False, workers=1):
        return ScenarioRun(
            fingerprint=fingerprint, pages=3, sim_us=10.0, wall_s=0.0,
            detail={"workers": workers},
        )

    return fn


def _boom_scenario(quick=False, workers=1):
    raise RuntimeError("scenario-blew-up")


@pytest.fixture
def fake_scenarios(monkeypatch):
    monkeypatch.setitem(ph.SCENARIOS, "ok", _fake_scenario())
    monkeypatch.setitem(ph.SCENARIOS, "boom", _boom_scenario)
    yield


def test_failing_scenario_does_not_stop_the_rest(fake_scenarios):
    # 'boom' comes first; 'ok' must still run and report (the old
    # driver aborted the loop at the first raise, so a single broken
    # scenario hid every later result).
    scoreboard = run_harness(["boom", "ok"], verbose=False)
    assert set(scoreboard["scenarios"]) == {"boom", "ok"}
    boom = scoreboard["scenarios"]["boom"]
    assert boom["identical"] is False
    assert "scenario-blew-up" in boom["error"]
    assert scoreboard["scenarios"]["ok"]["identical"] is True


def test_errored_scenario_is_a_check_violation(fake_scenarios):
    scoreboard = run_harness(["boom", "ok"], verbose=False)
    failures = check_regression(scoreboard, {"scenarios": {}})
    assert any("scenario raised" in f for f in failures)
    assert all("ok" != f.split(":")[0] for f in failures)


def test_parallel_leg_runs_and_reports(fake_scenarios, monkeypatch):
    # Only scenarios that actually fan out carry a parallel block.
    monkeypatch.setitem(ph.SCENARIOS, "fans", _fake_scenario())
    monkeypatch.setattr(ph, "FANOUT_SCENARIOS", ("fans",))
    scoreboard = run_harness(["ok", "fans"], verbose=False, workers=2)
    assert scoreboard["workers"] == 2
    assert scoreboard["scenarios"]["fans"]["parallel"]["identical"] is True
    assert "parallel" not in scoreboard["scenarios"]["ok"]
    assert "pool" not in scoreboard["scenarios"]["ok"]
    assert scoreboard["perf_spec"] == {
        "memo_capacity_bytes": ph.DEFAULT_MEMO_BYTES
    }


def _board(cpu_count, parallel):
    return {
        "cpu_count": cpu_count,
        "scenarios": {
            "cluster_ingest": {
                "identical": True,
                "speedup": 2.0,
                "parallel": parallel,
            },
        },
    }


def test_parallel_divergence_is_always_a_violation():
    board = _board(1, {"identical": False, "speedup": 3.0})
    failures = check_regression(board, {"scenarios": {}})
    assert any("parallel-leg output DIVERGED" in f for f in failures)


def test_parallel_speedup_gate_is_baseline_relative_and_needs_two_cores():
    baseline = _board(2, {"identical": True, "speedup": 1.6})
    floor = 1.6 * (1.0 - REGRESSION_TOLERANCE)
    slow = {"identical": True, "speedup": floor - 0.05}
    # 1-core host: honest ~1x speedup is not a regression.
    assert not check_regression(_board(1, slow), baseline)
    # 2-core host: held to the committed parallel speedup.
    failures = check_regression(_board(2, slow), baseline)
    assert any("parallel speedup" in f for f in failures)
    kept = {"identical": True, "speedup": floor + 0.05}
    assert not check_regression(_board(2, kept), baseline)
    # A baseline without a parallel leg has nothing to hold it to.
    assert not check_regression(_board(2, slow), {"scenarios": {}})


def test_real_parallel_leg_is_byte_identical_quick():
    scoreboard = run_harness(
        ["cluster_ingest"], quick=True, verbose=False, workers=2
    )
    row = scoreboard["scenarios"]["cluster_ingest"]
    assert row["identical"] is True
    assert row["parallel"]["identical"] is True
