"""On-disk campaign cache: key sensitivity, round-trips, runner integration."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments import ExperimentCache, ExperimentSettings
from repro.faultinjection import (
    CampaignCache,
    CampaignConfig,
    CampaignResult,
    campaign_key,
    prepare,
    run_campaign,
)
from repro.faultinjection import diskcache
from repro.sim.config import SimConfig
from repro.transforms.checkconfig import ProtectionConfig
from repro.workloads.registry import get_workload

from .conftest import build_sum_loop


@pytest.fixture
def module():
    m, _ = build_sum_loop()
    return m


@pytest.fixture
def config():
    return CampaignConfig(trials=8, seed=7)


# ---------------------------------------------------------------------------
# campaign_key sensitivity
# ---------------------------------------------------------------------------


def test_key_stable_for_identical_inputs(module, config):
    assert campaign_key(module, "w", "dup", config) == campaign_key(
        module, "w", "dup", config
    )


def test_key_changes_with_workload_scheme_trials_seed(module, config):
    base = campaign_key(module, "w", "dup", config)
    assert campaign_key(module, "other", "dup", config) != base
    assert campaign_key(module, "w", "none", config) != base
    assert campaign_key(module, "w", "dup", replace(config, trials=9)) != base
    assert campaign_key(module, "w", "dup", replace(config, seed=8)) != base


def test_key_changes_when_protection_config_changes(module, config):
    base = campaign_key(module, "w", "dup", config)
    tweaked = replace(config, protection=ProtectionConfig(histogram_bins=9))
    assert campaign_key(module, "w", "dup", tweaked) != base


def test_key_changes_when_sim_config_changes(module, config):
    base = campaign_key(module, "w", "dup", config)
    tweaked = replace(config, sim=SimConfig(phys_int_registers=4))
    assert campaign_key(module, "w", "dup", tweaked) != base


def test_key_ignores_jobs(module, config):
    """jobs cannot affect results (plans are pre-drawn), so it must not
    fragment the cache."""
    assert campaign_key(module, "w", "dup", replace(config, jobs=8)) == campaign_key(
        module, "w", "dup", config
    )


def test_key_covers_module_ir(config):
    m3, _ = build_sum_loop(mul_factor=3)
    m5, _ = build_sum_loop(mul_factor=5)
    assert campaign_key(m3, "w", "dup", config) != campaign_key(
        m5, "w", "dup", config
    )


def test_key_covers_schema_version(module, config, monkeypatch):
    base = campaign_key(module, "w", "dup", config)
    monkeypatch.setattr(diskcache, "CACHE_SCHEMA_VERSION",
                        diskcache.CACHE_SCHEMA_VERSION + 1)
    assert campaign_key(module, "w", "dup", config) != base


# ---------------------------------------------------------------------------
# CampaignResult serialisation round-trip
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_campaign():
    config = CampaignConfig(trials=6, seed=11)
    workload = get_workload("tiff2bw")
    prepared = prepare(workload, "dup", config)
    return run_campaign(workload, "dup", config, prepared=prepared)


def test_result_round_trip_is_bit_exact(small_campaign):
    restored = CampaignResult.from_dict(small_campaign.to_dict())
    assert restored.workload == small_campaign.workload
    assert restored.scheme == small_campaign.scheme
    assert restored.golden_instructions == small_campaign.golden_instructions
    assert restored.golden_guard_failures == small_campaign.golden_guard_failures
    assert (restored.golden_guard_evaluations
            == small_campaign.golden_guard_evaluations)
    # dataclass equality covers every TrialResult field, incl. fidelity/ASDC
    assert restored.trials == small_campaign.trials


def test_result_round_trip_survives_json(small_campaign):
    blob = json.dumps(small_campaign.to_dict())
    restored = CampaignResult.from_dict(json.loads(blob))
    assert restored.trials == small_campaign.trials


# ---------------------------------------------------------------------------
# CampaignCache storage behaviour
# ---------------------------------------------------------------------------


def test_cache_put_get_round_trip(tmp_path, small_campaign):
    cache = CampaignCache(root=tmp_path, enabled=True)
    cache.put("deadbeef", small_campaign)
    restored = cache.get("deadbeef")
    assert restored is not None
    assert restored.trials == small_campaign.trials


def test_cache_miss_and_corrupt_entry(tmp_path, small_campaign):
    cache = CampaignCache(root=tmp_path, enabled=True)
    assert cache.get("no-such-key") is None
    cache.put("bad", small_campaign)
    (tmp_path / "campaign-bad.json").write_text("{not json")
    assert cache.get("bad") is None
    (tmp_path / "campaign-bad.json").write_text('{"valid": "but wrong shape"}')
    assert cache.get("bad") is None


def test_cache_disabled_is_noop(tmp_path, small_campaign):
    cache = CampaignCache(root=tmp_path, enabled=False)
    cache.put("k", small_campaign)
    assert list(tmp_path.iterdir()) == []
    assert cache.get("k") is None


def test_cache_enabled_honours_env(monkeypatch, tmp_path):
    def enabled():
        return CampaignCache(root=tmp_path).enabled

    monkeypatch.setenv("REPRO_CACHE", "0")
    assert not enabled()
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert not enabled()
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert enabled()
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert enabled()
    assert not CampaignCache(root=tmp_path, enabled=False).enabled


def test_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
    assert diskcache.cache_dir() == tmp_path / "x"


# ---------------------------------------------------------------------------
# ExperimentCache integration: disk hits skip recomputation
# ---------------------------------------------------------------------------


def test_experiment_cache_disk_hit_skips_recompute(tmp_path, monkeypatch):
    settings = ExperimentSettings(trials=4, workloads=("tiff2bw",))
    disk = CampaignCache(root=tmp_path, enabled=True)

    first = ExperimentCache(settings, disk_cache=disk)
    original = first.campaign("tiff2bw", "dup")
    assert len(list(tmp_path.glob("campaign-*.json"))) == 1

    # A fresh in-memory cache with the same disk cache must load the stored
    # result without ever running trials.
    from repro.experiments import runner

    def boom(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("campaign recomputed despite disk cache hit")

    monkeypatch.setattr(runner, "run_campaign", boom)
    second = ExperimentCache(settings, disk_cache=disk)
    restored = second.campaign("tiff2bw", "dup")
    assert restored.trials == original.trials
    assert restored.counts() == original.counts()
