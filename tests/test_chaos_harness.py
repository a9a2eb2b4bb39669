"""Chaos-fuzz harness: sweep mechanics and violation reporting."""

from __future__ import annotations

import pytest

from repro.faultinjection import chaos
from repro.faultinjection.outcomes import Outcome, TrialResult


class TestSweep:
    @pytest.fixture(scope="class")
    def report(self):
        # tiny but real: one workload, one scheme, every model
        return chaos.run_chaos_sweep(
            ["tiff2bw"], ["original"], trials_per_model=4, seed=12, jobs=1
        )

    def test_all_invariants_hold(self, report):
        assert report.ok, [str(v) for v in report.violations]

    def test_trial_accounting(self, report):
        assert report.campaigns == len(chaos.DEFAULT_MODELS)
        # every campaign contributes exactly its configured trials
        assert report.trials == 4 * len(chaos.DEFAULT_MODELS)
        assert report.trials == sum(
            sum(row.values()) for row in report.outcome_by_model.values()
        )

    def test_outcomes_keyed_by_concrete_model(self, report):
        from repro.sim.faults import CONCRETE_FAULT_MODELS

        assert set(report.outcome_by_model) <= set(CONCRETE_FAULT_MODELS)
        # the fixed-model campaigns guarantee every concrete model ran
        assert set(report.outcome_by_model) == set(CONCRETE_FAULT_MODELS)

    def test_renderings(self, report):
        text = report.render_text()
        assert "chaos-fuzz report" in text
        assert "all invariants held" in text
        doc = report.to_json()
        assert doc["ok"] is True
        assert doc["violations"] == []
        assert doc["trials"] == report.trials

    def test_deterministic(self, report):
        again = chaos.run_chaos_sweep(
            ["tiff2bw"], ["original"], trials_per_model=4, seed=12, jobs=1
        )
        assert again.to_json() == report.to_json()


class TestViolationPaths:
    def test_escaped_exception_is_recorded_not_raised(self, monkeypatch):
        def exploding_campaign(*args, **kwargs):
            raise RuntimeError("worker went down")

        monkeypatch.setattr(chaos, "run_campaign", exploding_campaign)
        report = chaos.run_chaos_sweep(
            ["tiff2bw"], ["original"], trials_per_model=2, seed=1,
            models=["single_bit"],
        )
        assert not report.ok
        assert [v.kind for v in report.violations] == ["escaped_exception"]
        assert "RuntimeError" in report.violations[0].detail
        assert "VIOLATIONS" in report.render_text()

    def test_model_mismatch_flagged(self):
        report = chaos.ChaosReport()
        wrong = TrialResult(
            outcome=Outcome.MASKED, injection_cycle=1, bit=0,
            fault_model="burst",
        )

        class FakeResult:
            trials = [wrong]

        from repro.faultinjection.campaign import CampaignConfig

        chaos._audit_campaign(
            report, FakeResult(), CampaignConfig(trials=1), {}, "w", "s",
            "single_bit",
        )
        assert {v.kind for v in report.violations} == {"model_mismatch"}

    def test_campaign_trials_split(self):
        assert chaos._campaign_trials(1000, 8) == 125
        assert chaos._campaign_trials(1000, 3) == 334  # rounds up
        assert chaos._campaign_trials(5, 8) == 1
