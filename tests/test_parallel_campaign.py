"""Parallel campaign engine: plan pre-drawing, worker parity, progress."""

from __future__ import annotations

import hashlib
import random
import warnings
from dataclasses import replace

import pytest

from repro import settings
from repro.faultinjection import (
    CampaignConfig,
    draw_plans,
    prepare,
    run_campaign,
)
from repro.faultinjection.parallel import _chunk_size
from repro.obs import metrics as obs_metrics
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def prepared_g721():
    config = CampaignConfig(trials=6, seed=7)
    return config, prepare(get_workload("g721dec"), "dup_valchk", config)


# ---------------------------------------------------------------------------
# draw_plans
# ---------------------------------------------------------------------------


def test_draw_plans_length_and_determinism(prepared_g721):
    config, prepared = prepared_g721
    a = draw_plans(config, prepared)
    b = draw_plans(config, prepared)
    assert len(a) == config.trials
    assert [(p.cycle, p.bit, p.seed) for p in a] == [
        (p.cycle, p.bit, p.seed) for p in b
    ]


def test_draw_plans_matches_campaign_rng(prepared_g721):
    """Plans reproduce the historical interleaved draw order exactly."""
    config, prepared = prepared_g721
    key = f"{config.seed}:{prepared.workload.name}:{prepared.scheme}".encode()
    rng = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
    expected = []
    for _ in range(config.trials):
        cycle = rng.randrange(1, prepared.golden_instructions + 1)
        bit = rng.randrange(config.sim.register_flip_bits)
        seed = rng.randrange(1 << 30)
        expected.append((cycle, bit, seed))
    plans = draw_plans(config, prepared)
    assert [(p.cycle, p.bit, p.seed) for p in plans] == expected


def test_draw_plans_depend_on_seed_and_scheme(prepared_g721):
    config, prepared = prepared_g721
    base = [(p.cycle, p.bit, p.seed) for p in draw_plans(config, prepared)]
    reseeded = CampaignConfig(trials=config.trials, seed=config.seed + 1)
    assert [(p.cycle, p.bit, p.seed) for p in draw_plans(reseeded, prepared)] != base
    assert all(1 <= p.cycle <= prepared.golden_instructions
               for p in draw_plans(config, prepared))


# ---------------------------------------------------------------------------
# serial vs parallel parity
# ---------------------------------------------------------------------------


def test_parallel_bit_identical_to_serial(prepared_g721):
    config, prepared = prepared_g721
    workload = prepared.workload
    serial = run_campaign(workload, "dup_valchk", config, prepared=prepared)
    par_cfg = CampaignConfig(trials=config.trials, seed=config.seed, jobs=4)
    parallel = run_campaign(workload, "dup_valchk", par_cfg, prepared=prepared)
    # TrialResult is a dataclass: == compares every field of every trial.
    assert parallel.trials == serial.trials
    assert parallel.counts() == serial.counts()


def test_worker_counters_reach_the_parent_registry():
    """Counters bumped inside pool workers come back as per-chunk deltas, so
    a ``jobs=2`` campaign leaves the same simulator and memory-fault
    counters in the parent's registry as a ``jobs=1`` campaign."""
    config = CampaignConfig(trials=40, seed=2014, fault_model="memory_word")
    prepared = prepare(get_workload("tiff2bw"), "dup", config)

    def counters(jobs):
        registry = obs_metrics.enable_global()
        registry.reset()
        run_campaign(prepared.workload, "dup", replace(config, jobs=jobs),
                     prepared=prepared)
        return {
            name: value for name, value in registry.snapshot().items()
            if name.startswith(("sim.", "memfault.")) and isinstance(value, int)
        }

    try:
        serial = counters(1)
        assert serial["sim.instructions"] > 0
        assert serial["sim.runs.fastpath"] == config.trials
        assert counters(2) == serial
    finally:
        obs_metrics.reset_global()


def test_on_trial_called_once_per_trial(prepared_g721):
    config, prepared = prepared_g721
    workload = prepared.workload

    serial_seen = []
    run_campaign(workload, "dup_valchk", config, prepared=prepared,
                 on_trial=serial_seen.append)
    assert len(serial_seen) == config.trials

    par_cfg = CampaignConfig(trials=config.trials, seed=config.seed, jobs=2)
    par_seen = []
    result = run_campaign(workload, "dup_valchk", par_cfg, prepared=prepared,
                          on_trial=par_seen.append)
    assert len(par_seen) == config.trials
    # Completion order may differ from plan order; the multiset must match.
    assert sorted(t.injection_cycle for t in par_seen) == sorted(
        t.injection_cycle for t in result.trials
    )


# ---------------------------------------------------------------------------
# jobs resolution and chunking
# ---------------------------------------------------------------------------


def _jobs(value=None) -> int:
    return settings.resolve(CampaignConfig(jobs=value)).jobs


def test_jobs_env_resolution(monkeypatch):
    import os

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert _jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert _jobs() == 6
    monkeypatch.setenv("REPRO_JOBS", "0")  # 0 = auto: one worker per CPU
    assert _jobs() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "-3")
    assert _jobs() == 1


def test_jobs_misparse_warns_once(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    monkeypatch.setattr(settings, "_warned", set())
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert _jobs() == 1
    # Only the first misparse warns; later calls fall back silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _jobs() == 1


def test_jobs_explicit_wins(monkeypatch):
    import os

    monkeypatch.setenv("REPRO_JOBS", "6")
    assert _jobs(2) == 2
    assert _jobs() == 6
    assert _jobs(0) == (os.cpu_count() or 1)  # explicit auto
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert _jobs() == 1


def test_chunk_size_bounds():
    assert _chunk_size(1, 4) == 1
    assert _chunk_size(8, 4) == 1
    assert _chunk_size(1000, 4) == 32  # capped
    for n in (1, 7, 60, 1000):
        for jobs in (1, 2, 4, 16):
            assert 1 <= _chunk_size(n, jobs) <= 32
