"""The figure runners at their quick budgets reproduce the artifacts the
CLI's ``bench --fig N --quick`` writes.  The digests were first taken
when the full-budget benchmarks and the quick profiles became one runner
each, and are retaken only for a change that moves a simulated number on
purpose (the last: the buffer pool's hold on pages with redo in flight
and the workload's row lock, which removed the statements and pages the
two races used to damage)."""

import hashlib

import pytest

from repro.bench.figures import run_fig12, run_fig15

PINNED_SHA256 = {
    "fig12_quick": "3ccea36f71e193778615c93c03098965cc4d1390074a4756b8350a07a4904693",
    "fig15_quick": "fac736187a162324d2301c16cbcff01216e5b7596be3f99c19f20b9b1fb4992f",
}


@pytest.mark.parametrize(
    "runner, experiment",
    [(run_fig12, "fig12_quick"), (run_fig15, "fig15_quick")],
)
def test_quick_profile_bytes_match_the_parent(runner, experiment, tmp_path):
    result = runner(out_dir=str(tmp_path), quick=True)
    assert result.experiment == experiment
    artifact = (tmp_path / f"{experiment}.json").read_bytes()
    assert hashlib.sha256(artifact).hexdigest() == PINNED_SHA256[experiment]
