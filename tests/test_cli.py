"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "PolarStore reproduction" in out
    assert "repro.storage" in out


def test_experiments_lists_every_target(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for exp_id, target, _ in EXPERIMENTS:
        assert exp_id in out
        assert target in out


def test_demo_runs_end_to_end(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "dual-layer ratio" in out


def test_metrics_emits_json_snapshot(capsys):
    assert main(["metrics", "--rows", "120", "--duration", "0.02"]) == 0
    captured = capsys.readouterr()
    import json

    doc = json.loads(captured.out)
    names = {i["name"] for i in doc["instruments"]}
    layers = {n.split(".", 1)[0] for n in names}
    assert len(names) >= 10
    assert {"storage", "csd", "compression", "db", "engine"} <= layers
    # The engine's queue accounting is part of the snapshot: wait-time
    # histograms and utilization gauges per resource.
    assert "engine.resource.queue_wait_us" in names
    assert "engine.resource.utilization" in names
    # The traced write's breakdown lands on stderr with a sub-µs delta.
    assert "per-layer" in captured.err
    assert "delta 0.000us" in captured.err


def test_metrics_prometheus_format(capsys):
    assert main([
        "metrics", "--rows", "120", "--duration", "0.02",
        "--format", "prometheus",
    ]) == 0
    out = capsys.readouterr().out
    assert "# TYPE storage_wal_flushes counter" in out
    assert "_bucket{" in out and 'le="+Inf"' in out


def test_no_command_shows_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def _help_text(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def test_help_renders_for_every_subcommand(capsys):
    import re

    listed = re.search(r"\{([a-z,]+)\}", _help_text([], capsys)).group(1)
    commands = listed.split(",")
    assert {"info", "bench", "serve"} <= set(commands)
    assert "perf" not in commands
    for command in commands:
        out = _help_text([command], capsys)
        assert "usage" in out
        # A bare '%' in a help string makes argparse print the action's
        # attribute dict in place of the text.
        assert "{'option_strings'" not in out, command


def test_unknown_command_rejected():
    for argv in (["frobnicate"], ["dash", "sysbench"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


def test_chaos_smoke_passes_and_reports(capsys):
    assert main([
        "chaos", "--seed", "3", "--ops", "160", "--min-faults", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "chaos run: seed=3" in out
    assert "all invariants held" in out


def test_chaos_metrics_flag_appends_json_snapshot(capsys):
    assert main([
        "chaos", "--seed", "3", "--ops", "120", "--min-faults", "1",
        "--metrics",
    ]) == 0
    out = capsys.readouterr().out
    import json

    doc = json.loads(out[out.index("{"):])
    names = {i["name"] for i in doc["instruments"]}
    assert any(n.startswith("chaos.") for n in names)


def test_raft_smoke_passes_and_reports(capsys):
    """Elections, partitions and leader crashes drive the volume's
    replication group through ``attach_consensus``; the scenario's own
    invariants (no acked write lost, fenced leaders commit nothing)
    judge it."""
    assert main(["raft", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "raft scenario [PASS]" in out
    assert "VIOLATION" not in out


def test_chaos_rejects_tiny_op_counts(capsys):
    assert main(["chaos", "--ops", "10"]) == 2


def test_bench_fig15_quick_writes_artifacts(tmp_path, capsys):
    assert main(
        ["bench", "--fig", "15", "--quick", "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "fig15_quick" in out
    import json

    doc = json.loads((tmp_path / "fig15_quick.json").read_text())
    assert doc["columns"][0] == "threads"
    assert len(doc["rows"]) == 2
    # The per-page log helps at low thread counts (paper's Fig 15 claim).
    low = doc["rows"][0]
    assert low[3] > 0.10
    assert (tmp_path / "fig15_quick.txt").exists()


def test_bench_requires_fig(capsys):
    with pytest.raises(SystemExit):
        main(["bench"])


def test_cluster_scenario_writes_artifacts(tmp_path, capsys):
    assert main([
        "cluster", "--shards", "2", "--chunks", "2", "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "fig10_11_scheduling" in out
    assert "zones" in out
    assert "compression-aware:" in out
    import json

    doc = json.loads((tmp_path / "fig10_11_scheduling.json").read_text())
    schedulers = [row[0] for row in doc["rows"]]
    assert schedulers == ["logical_only", "compression_aware"]
    assert (tmp_path / "fig10_11_scheduling.txt").exists()


def test_cluster_rejects_bad_shapes(capsys):
    assert main(["cluster", "--shards", "1"]) == 2
    assert main(["cluster", "--shards", "4", "--chunks", "2"]) == 2


# -- observability commands -------------------------------------------------


def test_events_runs_scenario_and_dumps(tmp_path, capsys):
    out_path = tmp_path / "events.jsonl"
    assert main([
        "events", "sysbench", "--seed", "7", "--out", str(out_path),
    ]) == 0
    captured = capsys.readouterr()
    assert "# scenario sysbench seed 7:" in captured.err
    assert "verdict PASS" in captured.err
    assert f"# wrote {out_path}" in captured.err
    assert "# channels:" in captured.err
    # Rendered event lines on stdout, one per recorded event.
    lines = captured.out.strip().splitlines()
    assert lines and all("[" in line for line in lines)
    assert out_path.exists()


def test_events_load_and_filter_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "events.jsonl"
    assert main([
        "events", "sysbench", "--seed", "7", "--out", str(out_path),
    ]) == 0
    first = capsys.readouterr().out
    assert main([
        "events", "--load", str(out_path),
    ]) == 0
    replayed = capsys.readouterr().out
    assert replayed == first
    # Channel filtering narrows the replay to a strict subset.
    assert main([
        "events", "--load", str(out_path), "--channel", "commit",
        "--limit", "5",
    ]) == 0
    filtered = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(filtered) <= 5
    assert all("] commit " in line for line in filtered)


def test_events_requires_scenario_or_load(capsys):
    assert main(["events"]) == 2
    assert "required" in capsys.readouterr().err


# -- serving layer ----------------------------------------------------------


def test_load_quick_loopback_reports_percentiles(capsys):
    assert main([
        "load", "--quick", "--requests", "150", "--rate", "2000",
        "--seed", "5",
    ]) == 0
    captured = capsys.readouterr()
    assert "# loopback server on 127.0.0.1:" in captured.err
    assert "load: poisson x150 @ 2000/s (seed 5) over socket" in captured.out
    assert "completed 150" in captured.out
    assert "p50" in captured.out and "p99" in captured.out
    assert "SLO" in captured.out


def test_load_artifact_sim_half_is_run_independent(tmp_path, capsys):
    import json

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main([
            "load", "--quick", "--requests", "120", "--rate", "1000",
            "--arrival", "bursty", "--out", str(path),
        ]) == 0
        capsys.readouterr()
    a, b = (json.loads(p.read_text()) for p in paths)
    assert set(a) == {"sim", "wall"}
    assert a["sim"] == b["sim"]
    assert json.dumps(a["sim"], sort_keys=True) == \
        json.dumps(b["sim"], sort_keys=True)


def test_serve_and_load_parsers_share_flag_shapes():
    # The unified parent parser means --seed/--out/--quick parse the
    # same way everywhere; spot-check the serving-layer commands.
    with pytest.raises(SystemExit):
        main(["load", "--arrival", "sawtooth"])
    with pytest.raises(SystemExit):
        main(["serve", "--port", "not-a-port"])
