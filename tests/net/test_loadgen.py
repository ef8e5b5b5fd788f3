"""Open-loop load generation: seeded schedules, deterministic
artifacts, admission behavior under overload vs light load."""

import pytest

from repro.api import PolarStore, ReproConfig
from repro.common.errors import ReproError
from repro.net.loadgen import (
    P95_TARGET_US,
    REJECTION_BUDGET,
    ArrivalSpec,
    build_ops,
    build_schedule,
    run_load,
)
from repro.net.server import serve_in_thread


def _spec(**overrides):
    base = dict(requests=120, rate_per_s=20_000.0, keys=64, seed=3)
    base.update(overrides)
    return ArrivalSpec(**base)


# ---------------------------------------------------------------------------
# schedules and op mixes
# ---------------------------------------------------------------------------


def test_schedule_is_seeded_and_nondecreasing():
    spec = _spec()
    schedule = build_schedule(spec)
    assert len(schedule) == spec.requests
    assert schedule == sorted(schedule)
    assert all(t > 0 for t in schedule)
    assert build_schedule(spec) == schedule
    assert build_schedule(_spec(seed=4)) != schedule


def test_mean_rate_is_roughly_the_offered_rate():
    spec = _spec(requests=4000, rate_per_s=10_000.0)
    schedule = build_schedule(spec)
    mean_gap_us = schedule[-1] / len(schedule)
    assert mean_gap_us == pytest.approx(100.0, rel=0.2)


def test_op_mix_is_seeded_and_respects_keyspace():
    spec = _spec(read_fraction=0.5)
    ops = build_ops(spec)
    assert len(ops) == spec.requests
    assert ops == build_ops(spec)
    names = {op for op, _ in ops}
    assert names <= {"select", "update", "insert"}
    for op, key in ops:
        if op == "insert":
            assert key >= spec.keys  # fresh keys above the preload
        else:
            assert 0 <= key < spec.keys


def test_spec_validation():
    for bad in (
        dict(rate_per_s=0.0),
        dict(requests=0),
        dict(read_fraction=1.5),
        dict(keys=0),
    ):
        with pytest.raises(ReproError):
            _spec(**bad).validate()


# ---------------------------------------------------------------------------
# runs over a loopback server
# ---------------------------------------------------------------------------


def _run_over_socket(spec, *, window=64):
    handle = serve_in_thread(
        ReproConfig.from_dict(
            {"engine": {"enabled": True}, "net": {"window": window}}
        ),
        port=0,
    )
    client = PolarStore.connect(handle.addr, timeout_s=30.0)
    try:
        return run_load(client.transport, spec)
    finally:
        client.close()
        handle.stop()


def test_light_load_completes_everything_without_rejections():
    report = _run_over_socket(_spec(rate_per_s=500.0))
    assert report.completed == report.requests
    assert report.rejected_server == 0
    assert report.rejected_client == 0
    assert report.errors == 0
    assert set(report.percentiles) == {"p50", "p95", "p99", "max"}
    assert report.percentiles["p50"] <= report.percentiles["p99"]
    assert report.slo_passed


def test_overload_produces_deterministic_server_rejections():
    spec = _spec(rate_per_s=500_000.0, requests=200)
    first = _run_over_socket(spec, window=8)
    assert first.rejected_server > 0
    assert first.completed + first.rejected_server == spec.requests
    share = first.rejected_server / spec.requests
    assert share > REJECTION_BUDGET and not first.slo_passed
    assert first.slo_lines[1] == (
        f"net-load-rejections: BREACH (value {share:.3f}, "
        f"target {REJECTION_BUDGET:.3f})"
    )
    second = _run_over_socket(spec, window=8)
    assert second.to_artifact()["sim"] == first.to_artifact()["sim"]


def test_sim_artifact_is_byte_identical_across_runs():
    spec = _spec()
    a = _run_over_socket(spec).to_json()
    b = _run_over_socket(spec).to_json()
    import json

    assert json.loads(a)["sim"] == json.loads(b)["sim"]
    # The sim half serializes identically, wall half may differ.
    sim_a = json.dumps(json.loads(a)["sim"], sort_keys=True)
    sim_b = json.dumps(json.loads(b)["sim"], sort_keys=True)
    assert sim_a == sim_b


def test_local_transport_falls_back_to_closed_loop():
    client = PolarStore.open({"engine": {"enabled": True}})
    report = run_load(client.transport, _spec(rate_per_s=500.0))
    assert report.transport_kind == "local"
    assert report.completed == report.requests
    assert report.rejected_server == 0  # closed loop cannot overload
    assert report.percentiles["max"] > 0.0


def test_slo_lines_are_pinned_for_a_fixed_spec():
    spec = _spec(requests=40, rate_per_s=500.0)
    report = run_load(
        PolarStore.open({"engine": {"enabled": True}}).transport, spec
    )
    assert report.slo_passed
    assert report.slo_lines == [
        f"net-load-p95: ok (value 64.851, target {P95_TARGET_US:.3f})",
        f"net-load-rejections: ok (value 0.000, target {REJECTION_BUDGET:.3f})",
        "net-load-errors: ok (value 0.000, target 0.000)",
    ]


def test_artifact_shape_splits_sim_from_wall():
    client = PolarStore.open({"engine": {"enabled": True}})
    artifact = run_load(
        client.transport, _spec(requests=40, rate_per_s=500.0)
    ).to_artifact()
    assert set(artifact) == {"sim", "wall"}
    sim = artifact["sim"]
    assert sim["spec"]["seed"] == 3
    assert sim["requests"] == 40
    assert "wall_s" in artifact["wall"]
    assert "rejected_client" in artifact["wall"]
    assert "wall_s" not in sim


def test_registry_carries_load_instruments():
    client = PolarStore.open({"engine": {"enabled": True}})
    report = run_load(client.transport, _spec(requests=30, rate_per_s=500.0))
    registry = report.registry
    assert registry.counter("net.load.requests").value == 30
    assert registry.histogram("net.load.latency_us").count == 30
