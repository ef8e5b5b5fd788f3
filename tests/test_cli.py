"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def test_metrics_emits_json_snapshot(capsys):
    assert main(["metrics", "--rows", "120", "--duration", "0.02"]) == 0
    captured = capsys.readouterr()
    import json

    doc = json.loads(captured.out)
    names = {i["name"] for i in doc["instruments"]}
    layers = {n.split(".", 1)[0] for n in names}
    assert len(names) >= 10
    assert {"storage", "csd", "compression", "db", "engine"} <= layers
    # The engine's queue accounting is part of the snapshot: a wait-time
    # histogram per resource.
    assert "engine.resource.queue_wait_us" in names
    # The traced write's breakdown lands on stderr with a sub-µs delta.
    assert "per-layer" in captured.err
    assert "delta 0.000us" in captured.err


def test_metrics_runs_at_its_documented_defaults(capsys):
    assert main(["metrics"]) == 0


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
    assert {"bench", "serve"} <= set(commands)
    assert not {"perf", "info", "demo", "experiments"} & set(commands)
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


@pytest.mark.parametrize("argv", [
    ["load", "--requests", "0"],
    ["load", "--keys", "0"],
    ["load", "--rate", "0"],
    ["load", "--rate", "nan"],
    ["load", "--window", "0"],
    ["load", "--timeout-s", "-1"],
    ["serve", "--window", "0"],
    ["events", "sysbench", "--capacity", "0"],
    ["events", "sysbench", "--limit", "-1"],
    ["bench", "--fig", "12", "--workers", "0"],
    ["cluster", "--workers", "-2"],
    ["metrics", "--rows", "0"],
    ["metrics", "--duration", "nan"],
    ["metrics", "--duration", "inf"],
    ["metrics", "--duration", "-1"],
    ["chaos", "--seed", "-1"],
    ["chaos", "--min-faults", "-3"],
    ["events", "chaos", "--seed", "-1"],
    ["load", "--seed", "-1"],
    ["compaction", "--seed", "-1"],
    ["serve", "--port", "-5"],
    ["serve", "--shards", "-1"],
], ids=" ".join)
def test_hostile_numbers_exit_2_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "Traceback" not in err


def test_zero_port_seed_and_shards_still_parse(monkeypatch):
    # ``serve --port 0`` (an ephemeral port) is what the loopback
    # benchmark's server child runs; zero is a seed and "no shards".
    from repro.net import server

    class Started(Exception):
        pass

    class StubServer:
        def __init__(self, config):
            self.config = config

        def start(self):
            raise Started(self.config)

    monkeypatch.setattr(server, "PolarStoreServer", StubServer)
    with pytest.raises(Started) as started:
        main(["serve", "--port", "0", "--seed", "0", "--shards", "0"])
    config = started.value.args[0]
    assert (config.net.port, config.store.seed) == (0, 0)


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
            "--out", str(path),
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
        main(["load", "--rate", "fast"])
    with pytest.raises(SystemExit):
        main(["serve", "--port", "not-a-port"])


def test_load_reports_a_bad_addr_instead_of_a_traceback(capsys):
    for addr in ("127.0.0.1:abc", "127.0.0.1:70000"):
        assert main(["load", "--addr", addr]) == 1
        assert "port" in capsys.readouterr().err
