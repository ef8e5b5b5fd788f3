"""The parallel layer: program fan-out."""

import pytest

from repro.engine.parallel import ParallelEngineGroup, ParallelError


# -- program fan-out --------------------------------------------------------

def test_run_programs_matches_inline_at_any_worker_count():
    programs = [lambda i=i: {"index": i, "value": i * i} for i in range(7)]
    inline = ParallelEngineGroup.run_programs(programs, workers=1)
    for workers in (2, 3, 7):
        assert ParallelEngineGroup.run_programs(
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
    results = ParallelEngineGroup.run_programs(programs, workers=4)
    assert results[0][0] == "heavy"
    assert [r[1] for r in results[1:]] == [1, 2, 3, 4]


def test_run_programs_propagates_worker_tracebacks():
    def boom():
        raise ValueError("deliberate-worker-failure")

    with pytest.raises(ParallelError, match="deliberate-worker-failure"):
        ParallelEngineGroup.run_programs(
            [lambda: 1, boom], workers=2
        )


def test_run_programs_setup_seeds_each_worker():
    import tests.engine.test_parallel as mod

    def setup(worker_id):
        mod._WORKER_TAG = worker_id

    def read_tag():
        return mod._WORKER_TAG

    # Round-robin: programs 0,2 land on worker 0; 1,3 on worker 1.
    results = ParallelEngineGroup.run_programs(
        [read_tag] * 4, workers=2, setup=setup
    )
    assert results == [0, 1, 0, 1]


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
