"""The parallel layer: program fan-out."""

import os
import pathlib

import pytest

from repro.engine.parallel import ParallelError, run_programs


# -- program fan-out --------------------------------------------------------

def test_run_programs_matches_inline_at_any_worker_count():
    programs = [lambda i=i: {"index": i, "value": i * i} for i in range(7)]
    inline = run_programs(programs, workers=1)
    for workers in (2, 3, 7):
        assert run_programs(
            programs, workers=workers
        ) == inline


def test_run_programs_results_are_indexed_not_completion_ordered():
    # Program 0 does far more work than the rest; its slot must still be
    # slot 0 even though other workers finish first.
    def heavy():
        total = 0
        for i in range(200_000):
            total += i
        return ("heavy", total)

    programs = [heavy] + [lambda i=i: ("light", i) for i in range(1, 5)]
    results = run_programs(programs, workers=4)
    assert results[0][0] == "heavy"
    assert [r[1] for r in results[1:]] == [1, 2, 3, 4]


def test_run_programs_propagates_worker_tracebacks():
    def boom():
        raise ValueError("deliberate-worker-failure")

    with pytest.raises(ParallelError, match="deliberate-worker-failure"):
        run_programs(
            [lambda: 1, boom], workers=2
        )


def children():
    """Pids whose parent is this process, zombies included."""
    me = str(os.getpid())
    found = set()
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            found.add(stat.parent.name)
    return found


def test_a_worker_that_dies_is_named_and_every_child_is_reaped():
    before = children()
    with pytest.raises(ParallelError, match="worker 1 exited with status 3"):
        run_programs([lambda: 1, lambda: os._exit(3)], workers=2)
    assert children() == before


def test_run_programs_reports_an_unpicklable_result():
    with pytest.raises(ParallelError, match="worker 1 failed"):
        run_programs([lambda: 1, lambda: (lambda: 2)], workers=2)


def test_fig10_11_legs_fan_out_to_the_same_result(tmp_path):
    # ``cluster --workers N``: the two scheduler fleets are independent
    # universes, so fanning them out may not change the artifact.
    from repro.bench.cluster_fig import run_fig10_11

    serial, fanned = (
        run_fig10_11(out_dir=str(tmp_path / f"w{workers}"), shards=2,
                     chunks=4, seed=0, quiet=True, workers=workers)
        for workers in (1, 2)
    )
    assert fanned == serial
    assert (tmp_path / "w1" / "fig10_11_scheduling.json").read_bytes() == (
        tmp_path / "w2" / "fig10_11_scheduling.json"
    ).read_bytes()
