"""Fault-model hierarchy: plan determinism, parity, and key stability.

The load-bearing invariant throughout is *single-bit byte-identity*: the
default model must produce plans, results, cache keys, and obs logs that are
byte-for-byte what the pre-hierarchy code produced, while non-default models
opt in to the extra ``fault_model`` fields everywhere.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from repro.faultinjection.campaign import (
    CampaignConfig,
    draw_plans,
    prepare,
    run_campaign,
)
from repro.settings import resolve
from repro.faultinjection.diskcache import _config_fingerprint, campaign_key
from repro.faultinjection.outcomes import (
    Outcome,
    TrialResult,
    trial_from_record,
    trial_to_record,
)
from repro.obs import events as obs_events
from repro.sim.faults import (
    CHAOS_FAULT_MODEL,
    CONCRETE_FAULT_MODELS,
    FAULT_MODELS,
    InjectionPlan,
    flip_bits_window,
    force_bit,
    get_fault_model,
)
from repro.ir import I32
from repro.workloads import get_workload
from tests.conftest import build_sum_loop

WORKLOAD = "tiff2bw"
SCHEME = "dup"
ALL_MODELS = CONCRETE_FAULT_MODELS + (CHAOS_FAULT_MODEL,)


@pytest.fixture(scope="module")
def prepared_dup():
    """One prepared tiff2bw/dup shared by every campaign in this module.

    Preparation is fault-model independent (compile + protect + golden run),
    so sharing it across models is both sound and what the chaos harness
    itself does.
    """
    return prepare(get_workload(WORKLOAD), SCHEME, CampaignConfig(seed=5))


class TestFlipHelpers:
    def test_window_flip(self):
        # bits 0..3 of zero -> 0b1111
        assert flip_bits_window(I32, 0, 0, 4) == 15

    def test_window_wraps_around_the_width(self):
        # start 30 width 4 on i32 -> bits 30, 31, 0, 1
        flipped = flip_bits_window(I32, 0, 30, 4)
        assert flipped & 0xFFFFFFFF == 0xC0000003

    def test_window_is_involutive(self):
        value = 0x1234_5678
        once = flip_bits_window(I32, value, 7, 5)
        assert once != value
        assert flip_bits_window(I32, once, 7, 5) == value

    def test_force_bit(self):
        assert force_bit(I32, 0, 3, 1) == 8
        assert force_bit(I32, 8, 3, 1) == 8  # already stuck: no change
        assert force_bit(I32, 8, 3, 0) == 0

    def test_registry_lookup(self):
        for name in CONCRETE_FAULT_MODELS:
            assert get_fault_model(name).name == name
        with pytest.raises(ValueError, match="unknown fault model"):
            get_fault_model("nope")

    def test_plan_validates_model(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            InjectionPlan(cycle=1, bit=0, model="nope")


class TestPlanDrawing:
    """draw_plans is the single source of campaign randomness."""

    def test_single_bit_plans_match_the_historical_algorithm(
        self, prepared_dup
    ):
        # Inline reimplementation of the pre-hierarchy draw loop: sha256
        # seeding, then (cycle, bit, seed) per trial, nothing else.  The
        # default model must reproduce it draw for draw.
        config = CampaignConfig(trials=32, seed=5)
        key = f"{config.seed}:{WORKLOAD}:{SCHEME}".encode()
        rng = random.Random(
            int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        )
        expected = [
            (
                rng.randrange(1, prepared_dup.golden_instructions + 1),
                rng.randrange(config.sim.register_flip_bits),
                rng.randrange(1 << 30),
            )
            for _ in range(config.trials)
        ]
        plans = draw_plans(config, prepared_dup)
        assert [(p.cycle, p.bit, p.seed) for p in plans] == expected
        assert all(p.model == "single_bit" for p in plans)

    @pytest.mark.parametrize("model", CONCRETE_FAULT_MODELS[1:])
    def test_fixed_models_add_no_plan_draws(self, prepared_dup, model):
        # Concrete models reuse the single-bit plan stream verbatim; their
        # extra randomness comes from the per-trial seed at injection time.
        config = CampaignConfig(trials=16, seed=5)
        base = draw_plans(config, prepared_dup)
        plans = draw_plans(replace(config, fault_model=model), prepared_dup)
        assert [(p.cycle, p.bit, p.seed) for p in plans] == [
            (p.cycle, p.bit, p.seed) for p in base
        ]
        assert all(p.model == model for p in plans)

    def test_chaos_draws_the_model_after_the_seed(self, prepared_dup):
        config = CampaignConfig(trials=16, seed=5, fault_model="chaos")
        plans = draw_plans(config, prepared_dup)
        again = draw_plans(config, prepared_dup)
        assert [
            (p.cycle, p.bit, p.seed, p.model) for p in plans
        ] == [(p.cycle, p.bit, p.seed, p.model) for p in again]
        assert all(p.model in CONCRETE_FAULT_MODELS for p in plans)
        assert len({p.model for p in plans}) > 1  # actually a mix
        # first trial's (cycle, bit, seed) precede the model draw, so they
        # match the single-bit stream exactly
        base = draw_plans(CampaignConfig(trials=1, seed=5), prepared_dup)
        assert (plans[0].cycle, plans[0].bit, plans[0].seed) == (
            base[0].cycle, base[0].bit, base[0].seed,
        )

    def test_resolution_order(self, monkeypatch):
        def model(value):
            return resolve(CampaignConfig(fault_model=value)).fault_model

        monkeypatch.delenv("REPRO_FAULT_MODEL", raising=False)
        assert model(None) == "single_bit"
        assert model("burst") == "burst"
        monkeypatch.setenv("REPRO_FAULT_MODEL", "stuck_at")
        assert model(None) == "stuck_at"
        assert model("burst") == "burst"  # explicit wins
        monkeypatch.setenv("REPRO_FAULT_MODEL", "typo")
        with pytest.raises(ValueError, match="unknown fault model"):
            model(None)
        with pytest.raises(ValueError, match="unknown fault model"):
            CampaignConfig(fault_model="typo")


class TestCacheKeyStability:
    """The fault model is in cache keys iff it is non-default."""

    def test_default_fingerprint_has_no_fault_model(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_MODEL", raising=False)
        assert "fault_model" not in _config_fingerprint(CampaignConfig())
        assert "fault_model" not in _config_fingerprint(
            CampaignConfig(fault_model="single_bit")
        )
        fp = _config_fingerprint(CampaignConfig(fault_model="burst"))
        assert fp["fault_model"] == "burst"

    def test_explicit_single_bit_keys_like_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_MODEL", raising=False)
        module, _ = build_sum_loop()
        base = campaign_key(module, "w", "s", CampaignConfig())
        assert base == campaign_key(
            module, "w", "s", CampaignConfig(fault_model="single_bit")
        )
        assert base != campaign_key(
            module, "w", "s", CampaignConfig(fault_model="burst")
        )

    def test_env_model_reaches_the_key(self, monkeypatch):
        module, _ = build_sum_loop()
        monkeypatch.delenv("REPRO_FAULT_MODEL", raising=False)
        base = campaign_key(module, "w", "s", CampaignConfig())
        monkeypatch.setenv("REPRO_FAULT_MODEL", "memory_word")
        via_env = campaign_key(module, "w", "s", CampaignConfig())
        assert via_env != base
        assert via_env == campaign_key(
            module, "w", "s", CampaignConfig(fault_model="memory_word")
        )

    def test_execution_knobs_stay_excluded(self, monkeypatch):
        # jobs/obs/checkpoint/snapshot must not fragment the cache for any
        # model — including non-default ones.
        monkeypatch.delenv("REPRO_FAULT_MODEL", raising=False)
        module, _ = build_sum_loop()
        config = CampaignConfig(fault_model="burst")
        base = campaign_key(module, "w", "s", config)
        for variant in (
            replace(config, jobs=8),
            replace(config, obs_log="/tmp/x.jsonl"),
            replace(config, checkpoint="/tmp/x.ckpt"),
            replace(config, snapshot_every=128),
            replace(config, triage=False),
        ):
            assert campaign_key(module, "w", "s", variant) == base

    def test_trial_record_roundtrip(self):
        default = TrialResult(outcome=Outcome.MASKED, injection_cycle=3, bit=1)
        assert "fault_model" not in trial_to_record(default)
        assert trial_from_record(trial_to_record(default)) == default
        burst = replace(default, fault_model="burst")
        rec = trial_to_record(burst)
        assert rec["fault_model"] == "burst"
        assert trial_from_record(rec) == burst


class TestModelCampaignParity:
    """Every model: serial == jobs=2, byte for byte, results and logs."""

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_serial_vs_parallel(self, prepared_dup, tmp_path, model):
        workload = get_workload(WORKLOAD)
        results = {}
        for jobs in (1, 2):
            log = tmp_path / f"{model}-{jobs}.jsonl"
            config = CampaignConfig(
                trials=6, seed=5, jobs=jobs, fault_model=model,
                obs_log=str(log),
            )
            results[jobs] = run_campaign(
                workload, SCHEME, config, prepared=prepared_dup
            )
        assert results[1].to_dict() == results[2].to_dict()
        serial = (tmp_path / f"{model}-1.jsonl").read_bytes()
        parallel = (tmp_path / f"{model}-2.jsonl").read_bytes()
        assert serial == parallel
        stamped = {t.fault_model for t in results[1].trials}
        if model == CHAOS_FAULT_MODEL:
            assert stamped <= set(CONCRETE_FAULT_MODELS)
        else:
            assert stamped == {model}

    def test_single_bit_log_has_no_fault_model_keys(
        self, prepared_dup, tmp_path
    ):
        log = tmp_path / "single.jsonl"
        config = CampaignConfig(trials=6, seed=5, obs_log=str(log))
        result = run_campaign(
            get_workload(WORKLOAD), SCHEME, config, prepared=prepared_dup
        )
        assert "fault_model" not in result.to_dict()
        assert b"fault_model" not in log.read_bytes()

    def test_non_default_log_carries_the_model(self, prepared_dup, tmp_path):
        log = tmp_path / "burst.jsonl"
        config = CampaignConfig(
            trials=4, seed=5, fault_model="burst", obs_log=str(log)
        )
        result = run_campaign(
            get_workload(WORKLOAD), SCHEME, config, prepared=prepared_dup
        )
        assert result.to_dict()["fault_model"] == "burst"
        events, _ = obs_events.read_events(log)
        begin = next(e for e in events if e["event"] == "campaign_begin")
        assert begin["fault_model"] == "burst"
        trials = [e for e in events if e["event"] == "trial"]
        assert trials and all(e["fault_model"] == "burst" for e in trials)

    def test_triage_cannot_affect_non_single_bit_results(self, prepared_dup):
        # Dead-flip triage only proves deadness for one register binding, so
        # it is disabled for multi-site/persistent/memory models — results
        # must be identical with the knob on or off.
        workload = get_workload(WORKLOAD)
        on = run_campaign(
            workload, SCHEME,
            CampaignConfig(trials=6, seed=5, fault_model="burst", triage=True),
            prepared=prepared_dup,
        )
        off = run_campaign(
            workload, SCHEME,
            CampaignConfig(
                trials=6, seed=5, fault_model="burst", triage=False
            ),
            prepared=prepared_dup,
        )
        assert on.to_dict() == off.to_dict()

    @pytest.mark.parametrize("model", CONCRETE_FAULT_MODELS)
    def test_every_trial_classified(self, prepared_dup, model):
        config = CampaignConfig(trials=6, seed=9, fault_model=model)
        result = run_campaign(
            get_workload(WORKLOAD), SCHEME, config, prepared=prepared_dup
        )
        assert len(result.trials) == config.trials
        for trial in result.trials:
            assert isinstance(trial.outcome, Outcome)
            assert trial.fault_model == model

    def test_stuck_at_reapply_state_is_per_trial(self, prepared_dup):
        # Two stuck-at campaigns with the same seed are identical: the
        # persistent-fault bookkeeping must fully reset between trials.
        workload = get_workload(WORKLOAD)
        config = CampaignConfig(trials=8, seed=11, fault_model="stuck_at")
        first = run_campaign(workload, SCHEME, config, prepared=prepared_dup)
        second = run_campaign(workload, SCHEME, config, prepared=prepared_dup)
        assert first.to_dict() == second.to_dict()

    def test_registry_order_is_stable(self):
        # CONCRETE_FAULT_MODELS order is baked into chaos plan drawing;
        # reordering would silently change every chaos campaign.  The
        # memory-hierarchy models append after the register models so older
        # register-only plan streams keep their draws.
        assert CONCRETE_FAULT_MODELS == (
            "single_bit", "double_bit", "burst", "stuck_at", "memory_word",
            "mem_transient", "mem_stuck_at", "cache_line", "stack_frame",
        )
        assert tuple(FAULT_MODELS) == CONCRETE_FAULT_MODELS
