"""A scaled-down end-to-end run of the chaos harness.

The full acceptance schedule (700 ops, >= 100 data faults) runs via
``python -m repro chaos --seed 42`` in CI's chaos-smoke job; this test
drives the same code path at a size that keeps the suite fast.  The I6
fault floor scales with the op count — fault *counts* vary with the
process-wide node-name counter (injector RNG streams are derived from
device labels), but every structural invariant (I1–I5) must hold at any
size.
"""

from repro.chaos.harness import run_chaos


def test_small_schedule_holds_every_invariant():
    report = run_chaos(seed=3, ops=160, scrub_every=40, min_data_faults=5)
    assert report.passed, report.violations
    assert report.writes > 0 and report.reads > 0
    assert report.redo_commits > 0 and report.scrubs > 0
    # The schedule exercised crash + rejoin, quorum loss, and injection.
    assert report.wal_replays >= 3
    assert report.quorum_errors == 1
    assert report.injected_data_faults >= 5
    # Detection is conservation-accurate: every detected corruption was
    # repaired (the plan scopes data faults to the leader, so a healthy
    # follower copy always exists).
    assert sum(report.detected.values()) == sum(report.repaired.values())
    assert not report.unrepairable


def test_report_render_mentions_the_outcome():
    report = run_chaos(seed=5, ops=120, scrub_every=40, min_data_faults=1)
    text = report.render()
    assert "chaos run: seed=5" in text
    assert ("all invariants held" in text) == report.passed


def test_chaos_i6_floor_breaches_with_exact_message():
    report = run_chaos(
        seed=42, ops=80, pages=32, scrub_every=40,
        min_data_faults=10**6,
    )
    assert not report.passed
    assert any(
        v.startswith("I6: only") and "schedule requires" in v
        for v in report.violations
    )


def test_report_carries_the_metrics_registry():
    report = run_chaos(seed=8, ops=120, scrub_every=40, min_data_faults=1)
    names = {inst.name for inst in report.metrics.instruments()}
    assert "chaos.detected" in names
