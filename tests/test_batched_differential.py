"""Differential tests: batched lane-parallel execution vs. scalar fastpath.

The batched backend (``src/repro/sim/batched.py``) is a pure optimisation:
running a campaign with ``batch=N`` must produce **byte-identical** trial
results, observability logs, and checkpoint payloads to the scalar triage
fastpath — for every scheme, every fault model, any jobs count, and any
batch size.  These tests pin that invariant the same way the compiled
fast path's own differential suite does: dataclass equality over every
TrialResult field plus raw byte comparison of the obs log files.
"""

from __future__ import annotations

import json

import pytest

from repro.faultinjection import (
    CampaignConfig,
    load_checkpoint,
    prepare,
    run_campaign,
)
from repro.faultinjection.campaign import batched_enabled
from repro.obs.events import read_events, resilience_log_path
from repro.settings import resolve
from repro.workloads.registry import get_workload

WORKLOADS = ["g721dec", "kmeans"]
SCHEMES = ["original", "dup", "dup_valchk", "full_dup"]

_prepared_cache = {}


def _prepared(workload_name, scheme, **config_kwargs):
    """Module-lifetime prepared workloads (golden run + snapshots are the
    expensive part; they are identical for the scalar and batched runs)."""
    key = (workload_name, scheme, tuple(sorted(config_kwargs.items())))
    if key not in _prepared_cache:
        config = CampaignConfig(trials=12, seed=11, **config_kwargs)
        _prepared_cache[key] = (
            config,
            prepare(get_workload(workload_name), scheme, config),
        )
    return _prepared_cache[key]


def _campaign(prepared, scheme, obs_log, batch=None, jobs=1, **kwargs):
    base = _replaceable(kwargs)
    cfg = CampaignConfig(
        trials=12, seed=11, jobs=jobs, obs_log=str(obs_log), batch=batch,
        **base,
    )
    return run_campaign(
        prepared.workload, scheme, cfg, prepared=prepared
    ), cfg


def _replaceable(kwargs):
    return {k: v for k, v in kwargs.items() if v is not None}


def _assert_identical(tmp_path, prepared, scheme, batch, jobs=1, model=None):
    ref_log = tmp_path / "scalar.jsonl"
    bat_log = tmp_path / "batched.jsonl"
    reference, _ = _campaign(
        prepared, scheme, ref_log, jobs=jobs, fault_model=model
    )
    batched, cfg = _campaign(
        prepared, scheme, bat_log, batch=batch, jobs=jobs, fault_model=model
    )
    assert batched_enabled(resolve(cfg)), "batched backend should be active"
    # Dataclass equality: every field of every trial, in order.
    assert batched.trials == reference.trials
    assert bat_log.read_bytes() == ref_log.read_bytes()
    return reference, batched


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_matches_scalar_serial(tmp_path, workload, scheme):
    """4 schemes x 2 workloads: serial batched == serial scalar, bytes."""
    _, prepared = _prepared(workload, scheme)
    # batch=5 over 12 trials: two full bursts plus a remainder burst.
    _assert_identical(tmp_path, prepared, scheme, batch=5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_batched_matches_scalar_parallel(tmp_path, workload):
    """jobs=2: workers sub-batch their chunks, results still byte-equal."""
    _, prepared = _prepared(workload, "dup_valchk")
    _assert_identical(tmp_path, prepared, "dup_valchk", batch=4, jobs=2)


@pytest.mark.parametrize(
    "model", ["mem_transient", "mem_stuck_at", "memory_word", "cache_line",
              "stack_frame", "chaos"]
)
def test_batched_matches_scalar_memory_models(tmp_path, model):
    """Memory-hierarchy models (occupancy-map triage) and the chaos mix —
    the mix also exercises lane-ineligible peeling (double_bit, burst,
    control faults ride scalar inside a batched campaign)."""
    _, prepared = _prepared("g721dec", "dup_valchk", fault_model=model)
    _assert_identical(
        tmp_path, prepared, "dup_valchk", batch=5, model=model
    )


def test_batch_size_is_immaterial(tmp_path):
    """A lane's verdict never depends on which lanes share its sweep."""
    _, prepared = _prepared("kmeans", "dup_valchk")
    logs = []
    results = []
    for batch in (2, 7, 12):
        log = tmp_path / f"b{batch}.jsonl"
        result, _ = _campaign(prepared, "dup_valchk", log, batch=batch)
        logs.append(log.read_bytes())
        results.append(result.trials)
    assert results[0] == results[1] == results[2]
    assert logs[0] == logs[1] == logs[2]


def test_batched_sidecar_accounts_every_lane(tmp_path):
    """The ``batched`` sidecar event partitions lanes into masked+diverged
    and stays out of the byte-identical main log."""
    _, prepared = _prepared("kmeans", "dup_valchk")
    log = tmp_path / "log.jsonl"
    _campaign(prepared, "dup_valchk", log, batch=6)
    main_events, skipped = read_events(log)
    assert skipped == 0
    assert all(e["event"] != "batched" for e in main_events)
    sidecar, _ = read_events(resilience_log_path(str(log)))
    batched = [e for e in sidecar if e["event"] == "batched"]
    assert len(batched) == 1
    event = batched[0]
    assert event["lanes"] == 12
    assert event["masked"] + event["diverged"] == event["lanes"]
    assert sum(event["divergence"].values()) == event["diverged"]


def test_batch_does_not_fragment_cache_key():
    """``batch`` is a pure execution-strategy knob: a batched campaign must
    hit the cache entry a scalar campaign wrote (and vice versa)."""
    from dataclasses import replace

    from repro.faultinjection.diskcache import campaign_key
    from .conftest import build_sum_loop

    module, _ = build_sum_loop()
    config = CampaignConfig(trials=8, seed=7)
    assert campaign_key(module, "w", "dup", replace(config, batch=8)) == (
        campaign_key(module, "w", "dup", config)
    )


class _InterruptAfter:
    """on_trial callback that simulates Ctrl-C after ``n`` trials."""

    def __init__(self, n):
        self.n = n
        self.seen = 0

    def __call__(self, trial):
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt


def test_batched_resume_mid_batch_byte_identical(tmp_path):
    """Interrupt a batched campaign mid-flight, resume it (still batched):
    the checkpoint holds scalar-identical trial payloads and the finished
    campaign's results and obs log match an undisturbed scalar run's."""
    from repro.faultinjection import ResiliencePolicy

    _, prepared = _prepared("g721dec", "dup_valchk")
    policy = ResiliencePolicy(
        enabled=True, checkpoint_every=1, backoff_seconds=0.0
    )

    ref_log = tmp_path / "ref.jsonl"
    reference, _ = _campaign(prepared, "dup_valchk", ref_log)

    ckpt = tmp_path / "ckpt.json"
    log = tmp_path / "log.jsonl"
    cfg = CampaignConfig(
        trials=12, seed=11, obs_log=str(log), batch=5,
        checkpoint=str(ckpt), resilience=policy,
    )
    with pytest.raises(KeyboardInterrupt):
        run_campaign(prepared.workload, "dup_valchk", cfg,
                     prepared=prepared, on_trial=_InterruptAfter(4))
    assert ckpt.exists()
    loaded = load_checkpoint(
        ckpt, json.loads(ckpt.read_text())["key"], 12
    )
    assert loaded is not None and len(loaded.completed) >= 4
    # Checkpointed payloads are the scalar trials, field for field.
    for index, trial in loaded.completed.items():
        assert trial == reference.trials[index]

    resumed = run_campaign(prepared.workload, "dup_valchk", cfg,
                           prepared=prepared)
    assert resumed.trials == reference.trials
    assert log.read_bytes() == ref_log.read_bytes()
    assert not ckpt.exists()
