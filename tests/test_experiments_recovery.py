"""Unit test for the recovery-analysis experiment driver (reduced scope)."""

import pytest

from repro.experiments import ExperimentCache, ExperimentSettings, recovery_analysis


@pytest.fixture(scope="module")
def cache():
    return ExperimentCache(ExperimentSettings(trials=10, workloads=("tiff2bw",)))


class TestRecoveryAnalysis:
    def test_rows_account_for_every_trial(self, cache):
        rows = recovery_analysis.compute(cache)
        assert len(rows) == 1
        r = rows[0]
        assert (
            r.corrected + r.clean + r.acceptable + r.escaped + r.trapped
            == r.trials
        )

    def test_correct_rate_bounds(self, cache):
        (r,) = recovery_analysis.compute(cache)
        assert 0.0 <= r.correct_output_rate <= 1.0
        assert r.mean_recovery_cost >= 0.0

    def test_report_renders(self, cache):
        text = recovery_analysis.report(cache)
        assert "checkpoint recovery" in text
        assert "tiff2bw" in text
        assert "fully-correct-output rate" in text

    def test_rows_pinned(self, cache):
        """The rows the from-scratch recovery model produced at this scale."""
        (r,) = recovery_analysis.compute(cache)
        assert r == recovery_analysis.RecoveryRow(
            benchmark="tiff2bw", trials=5, corrected=2, clean=2,
            acceptable=1, escaped=0, trapped=0, mean_recovery_cost=1.0,
        )
