"""The write-amplification crossover benchmark (quick mode)."""

from repro.bench.write_amp import CORPORA, run_write_amp


def test_quick_crossover_holds_and_is_deterministic(tmp_path):
    result, crossover = run_write_amp(tmp_path, quick=True)
    assert crossover is True
    assert result.experiment == "write_amp_quick"
    # 2 corpora x 3 policies, every ratio positive.
    assert len(result.rows) == 6
    for row in result.rows:
        corpus, policy, wa, sa, ra = row[:5]
        assert corpus in CORPORA
        assert wa > 0 and sa > 0 and ra >= 1.0
    again, _ = run_write_amp(tmp_path, quick=True)
    assert again.rows == result.rows


def test_policy_filter_skips_crossover_verdict(tmp_path):
    result, crossover = run_write_amp(
        tmp_path, quick=True, policies=["leveled"]
    )
    assert crossover is None
    assert result.experiment == "write_amp_leveled_quick"
    assert {row[1] for row in result.rows} == {"leveled"}
