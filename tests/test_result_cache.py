"""Figure 12 cycles and §IV-D recovery rows in the disk cache.

A warm render recomputes nothing: no campaign, timing run, recovery trial
or golden stage.  The new entry kinds are keyed like campaigns, round-trip
bit-exactly, are quarantined when corrupt, and show up by kind in the obs
report while campaign hits stay as they were.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.durable import canonical_sha256
from repro.experiments import (
    crossval,
    false_positives,
    figure2,
    figure10,
    figure11,
    figure12,
    figure13,
    recovery_analysis,
    runner,
    summary,
)
from repro.experiments.runner import ExperimentCache, ExperimentSettings
from repro.experiments.recovery_analysis import RECOVERY, RecoveryRow
from repro.faultinjection import campaign
from repro.faultinjection.campaign import CampaignConfig
from repro.faultinjection.diskcache import (
    CYCLES,
    CampaignCache,
    campaign_key,
    entry_key,
)
from repro.faultinjection.resilience import ResilienceLogger
from repro.obs.events import cache_hit_event
from repro.obs.report import LogReport
from repro.sim.config import SimConfig

from .conftest import build_sum_loop

REPORTS = (figure2, figure10, figure11, figure12, figure13, crossval,
           recovery_analysis, summary)


def _settings(**changes) -> ExperimentSettings:
    return ExperimentSettings(
        trials=changes.pop("trials", 4), workloads=("tiff2bw",), **changes
    )


def _entries(root, kind: str):
    return sorted(root.glob(f"{kind}-*.json"))


# ---------------------------------------------------------------------------
# (a) a warm render recomputes nothing
# ---------------------------------------------------------------------------


def test_warm_render_recomputes_nothing(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    cold = ExperimentCache(
        _settings(), disk_cache=CampaignCache(root=root, enabled=True)
    )
    texts = [report.report(cold) for report in REPORTS]

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm render recomputed a cached value")

    monkeypatch.setattr(runner, "run_campaign", forbidden)
    monkeypatch.setattr(recovery_analysis, "run_with_recovery", forbidden)
    monkeypatch.setattr(runner, "TimingModel", forbidden)
    # The golden stage: the runner's only way to a golden run or capture.
    monkeypatch.setattr(runner, "prepare", forbidden)
    monkeypatch.setattr(campaign, "prepare", forbidden)
    warm = ExperimentCache(
        _settings(), disk_cache=CampaignCache(root=root, enabled=True)
    )
    assert [report.report(warm) for report in REPORTS] == texts
    for scheme in figure12.SCHEMES + ("original",):
        assert (warm.runtime_cycles("tiff2bw", scheme).hex()
                == cold.runtime_cycles("tiff2bw", scheme).hex())


def test_false_positives_take_no_capture_run(tmp_path, monkeypatch):
    """The false-positive counts come from the golden run alone: over a warm
    disk cache, where no campaign prepares its workload, the report renders
    the same bytes as after the cold run's campaigns with no capture run."""
    root = tmp_path / "cache"
    cold = ExperimentCache(
        _settings(), disk_cache=CampaignCache(root=root, enabled=True)
    )
    cold.campaign("tiff2bw", "dup_valchk")
    text = false_positives.report(cold)

    def forbidden(*args, **kwargs):
        raise AssertionError("the false-positive report ran a capture")

    monkeypatch.setattr(campaign, "_capture_golden_state", forbidden)
    warm = ExperimentCache(
        _settings(), disk_cache=CampaignCache(root=root, enabled=True)
    )
    assert false_positives.report(warm) == text


def test_disabled_cache_writes_no_entries(tmp_path):
    root = tmp_path / "cache"
    cache = ExperimentCache(
        _settings(), disk_cache=CampaignCache(root=root, enabled=False)
    )
    cache.runtime_cycles("tiff2bw", "dup")
    recovery_analysis.compute(cache)
    assert not root.exists()


# ---------------------------------------------------------------------------
# (b) what the keys cover
# ---------------------------------------------------------------------------


@pytest.fixture
def module():
    m, _ = build_sum_loop()
    return m


def test_cycles_key_covers_ir_workload_and_sim_config(module):
    config = CampaignConfig(trials=8, seed=7)
    base = entry_key(CYCLES, module, "w", "dup", config)
    other, _ = build_sum_loop(mul_factor=5)
    assert entry_key(CYCLES, other, "w", "dup", config) != base
    assert entry_key(CYCLES, module, "other", "dup", config) != base
    tweaked = replace(config, sim=replace(config.sim, miss_penalty=31))
    assert entry_key(CYCLES, module, "w", "dup", tweaked) != base
    # A campaign of the same module never shares a cycles entry's key.
    assert campaign_key(module, "w", "dup", config) != base


@pytest.mark.parametrize("change", [
    {"jobs": 4}, {"snapshot_every": 0}, {"triage": False},
    {"trace": "spans.json"},
])
def test_cycles_key_ignores_execution_settings(module, change):
    config = CampaignConfig(trials=8, seed=7)
    assert (entry_key(CYCLES, module, "w", "dup", replace(config, **change))
            == entry_key(CYCLES, module, "w", "dup", config))


def test_cycles_entry_follows_the_sim_config(tmp_path):
    root = tmp_path / "cache"
    for penalty in (30, 30, 31):
        settings = _settings(
            campaign=CampaignConfig(sim=SimConfig(miss_penalty=penalty))
        )
        ExperimentCache(
            settings, disk_cache=CampaignCache(root=root, enabled=True)
        ).runtime_cycles("tiff2bw", "dup")
    assert len(_entries(root, "cycles")) == 2


@pytest.mark.parametrize("variant", ["seed", "trials", "interval"])
def test_recovery_key_covers_seed_trials_and_interval(
    tmp_path, monkeypatch, variant
):
    root = tmp_path / "cache"

    def render(**changes):
        cache = ExperimentCache(
            _settings(**changes),
            disk_cache=CampaignCache(root=root, enabled=True),
        )
        recovery_analysis.compute(cache)

    render()
    render()
    assert len(_entries(root, "recovery")) == 1
    if variant == "seed":
        render(seed=7)
    elif variant == "trials":
        render(trials=12)
    else:
        monkeypatch.setattr(recovery_analysis, "CHECKPOINT_INTERVAL", 20_000)
        render()
    assert len(_entries(root, "recovery")) == 2


# ---------------------------------------------------------------------------
# (c) bit-exact round trips and integrity
# ---------------------------------------------------------------------------


AWKWARD = (0.1 + 0.2, 1 / 3, 5e-324, 1.7976931348623157e308, 8843.0)


def test_cycles_round_trip_bit_exactly(tmp_path):
    cache = CampaignCache(root=tmp_path, enabled=True)
    for i, value in enumerate(AWKWARD):
        cache.put(f"{i:064x}", value, CYCLES, workload="w", scheme="dup")
        stored, meta = cache.get_entry(f"{i:064x}", CYCLES)
        assert stored.hex() == value.hex()
        assert meta["workload"] == "w" and meta["scheme"] == "dup"


def test_recovery_row_round_trips_bit_exactly(tmp_path):
    cache = CampaignCache(root=tmp_path, enabled=True)
    for i, cost in enumerate(AWKWARD):
        row = RecoveryRow("w", 9, 1, 2, 3, 1, 2, mean_recovery_cost=cost)
        cache.put(f"{i:064x}", row, RECOVERY, workload="w", trials=9)
        stored, _ = cache.get_entry(f"{i:064x}", RECOVERY)
        assert stored == row
        assert stored.mean_recovery_cost.hex() == cost.hex()


@pytest.mark.parametrize("kind, value", [
    (CYCLES, 8843.5),
    (RECOVERY, RecoveryRow("w", 5, 1, 1, 1, 1, 1, mean_recovery_cost=0.25)),
])
def test_corrupt_entry_of_each_kind_is_quarantined(tmp_path, kind, value):
    logger = ResilienceLogger(str(tmp_path / "obs.jsonl"))
    cache = CampaignCache(root=tmp_path / "cache", enabled=True,
                          logger=logger)
    key = "ab" * 32
    cache.put(key, value, kind, workload="w", scheme="dup")
    path = cache._path(key, kind)
    document = json.loads(path.read_text())
    # A payload that passes its checksum but does not decode.
    document["result"] = ["garbage"]
    document["integrity"]["sha256"] = canonical_sha256(["garbage"])
    path.write_text(json.dumps(document))
    assert cache.get_entry(key, kind) is None
    assert not path.exists()
    assert len(list((tmp_path / "cache" / "quarantine").iterdir())) == 1
    sidecar = (tmp_path / "obs.jsonl.resilience").read_text()
    assert '"kind":"cache_corrupt"' in sidecar


# ---------------------------------------------------------------------------
# (d) the obs report labels each hit by kind
# ---------------------------------------------------------------------------


def test_campaign_hit_event_is_unchanged():
    meta = {"created_iso": "2026-08-06T00:00:00Z", "trials": 60}
    assert cache_hit_event("w", "dup", "k", meta) == {
        "event": "cache_hit", "v": 1, "workload": "w", "scheme": "dup",
        "key": "k", "meta": meta,
    }
    assert cache_hit_event("w", "dup", "k", meta, "cycles")["kind"] == "cycles"


def test_report_labels_cache_hits_by_kind(tmp_path):
    log = tmp_path / "log.jsonl"
    meta = {"created_iso": "2026-08-06T00:00:00Z"}
    events = [
        cache_hit_event("w", "full_dup", "f" * 64, meta),
        cache_hit_event("w", "dup", "c" * 64, meta, "cycles"),
        cache_hit_event("w", "dup_valchk", "r" * 64, meta, "recovery"),
    ]
    log.write_text("".join(json.dumps(e) + "\n" for e in events))
    report = LogReport.from_paths([log])
    assert len(report.cache_hits) == 3
    text = report.render_text()
    assert "cache hits: 3" in text
    created = "(created 2026-08-06T00:00:00Z)"
    assert (f"  - w/full_dup served from cache key={'f' * 12} {created}"
            in text)
    assert (f"  - w/dup cycles served from cache key={'c' * 12} {created}"
            in text)
    assert ("  - w/dup_valchk recovery served from cache "
            f"key={'r' * 12} {created}") in text
    kinds = [hit.get("kind") for hit in report.to_json()["cache_hits"]]
    assert kinds == [None, "cycles", "recovery"]
