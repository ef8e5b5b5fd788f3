"""Wall-clock speedup scoreboard: serial stack vs the perf fast path.

Unlike every other benchmark in this directory, the quantity measured
here is **host wall-clock time**, not simulated microseconds: each
pinned scenario (8-client sysbench + checkpoint + scrub, the chaos
smoke schedule, a sharded-runtime ingest/migration) runs twice — once
with the perf runtime deactivated and once with the codec-memo
fast path — and the harness asserts the two runs produce identical
output bytes and identical simulated timings before reporting the
speedup.  The committed scoreboard at the repo root
(``BENCH_wallclock.json``) is the CI perf-smoke baseline:

    PYTHONPATH=src python -m repro perf                 # regenerate
    PYTHONPATH=src python -m repro perf --check BENCH_wallclock.json
"""

from repro.perf.harness import DEFAULT_REPORT, run_harness, write_report


def run_wallclock(quick: bool = False, out: str = DEFAULT_REPORT):
    """Full A/B sweep; writes the scoreboard JSON and returns it."""
    scoreboard = run_harness(quick=quick)
    write_report(scoreboard, out)
    return scoreboard


def test_wallclock_smoke(run_once, tmp_path):
    scoreboard = run_once(
        run_harness,
        scenario_names=["sysbench8"],
        quick=True,
        verbose=False,
    )
    row = scoreboard["scenarios"]["sysbench8"]
    # Correctness is the hard gate: the fast path must be a pure
    # wall-clock optimization.
    assert row["identical"]
    assert row["codec_calls_saved"] > 0
    assert row["memo"]["hits"] > 0
    # Wall-clock assertions stay loose — CI hosts are noisy — but the
    # memo must not make things *slower* than running every codec.
    assert row["speedup"] > 1.0
    assert row["pages"] > 0


if __name__ == "__main__":
    import json

    print(json.dumps(run_wallclock(), indent=2, sort_keys=True))
