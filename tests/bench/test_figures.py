"""The figure runners at their quick budgets reproduce the artifacts the
CLI's ``bench --fig N --quick`` wrote before the full-budget benchmarks
and the quick profiles became one runner each (digests taken from a
checkout of that parent commit)."""

import hashlib

import pytest

from repro.bench.figures import run_fig12, run_fig15

PARENT_SHA256 = {
    "fig12_quick": "f1defb4663052ca3d51337c813eb6dba9cdb7f90cdbd07419535b8d187cf2088",
    "fig15_quick": "8badec3145b680f251470029dd979bdef2807f3259a985529f43a3b998de90d3",
}


@pytest.mark.parametrize(
    "runner, experiment",
    [(run_fig12, "fig12_quick"), (run_fig15, "fig15_quick")],
)
def test_quick_profile_bytes_match_the_parent(runner, experiment, tmp_path):
    result = runner(out_dir=str(tmp_path), quick=True)
    assert result.experiment == experiment
    artifact = (tmp_path / f"{experiment}.json").read_bytes()
    assert hashlib.sha256(artifact).hexdigest() == PARENT_SHA256[experiment]
