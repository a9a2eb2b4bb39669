"""Campaign resilience: checkpoint/resume, worker recovery, watchdog,
quarantine.

The invariant under test throughout: recovery must be *invisible in the
results*.  A campaign that was interrupted and resumed, lost workers, or
fell back to serial execution produces byte-identical trial results and
observability logs to an undisturbed ``jobs=1`` run — recovery is visible
only in the ``<log>.resilience`` sidecar and the ``resilience.*`` metrics.
"""

from __future__ import annotations

import io
import json
import os
import signal
from dataclasses import replace

import pytest

from repro import durable
from repro.faultinjection import (
    CampaignConfig,
    Checkpoint,
    ResiliencePolicy,
    load_checkpoint,
    prepare,
    run_campaign,
    save_checkpoint,
)
from repro.faultinjection import campaign as campaign_mod
from repro.faultinjection import parallel as parallel_mod
from repro.faultinjection import resilience as resilience_mod
from repro.faultinjection.outcomes import TrialResult
from repro.obs.events import read_events, resilience_log_path
from repro.obs.heartbeat import read_heartbeat
from repro.settings import resolve
from repro.workloads.registry import get_workload
from repro.faultinjection.outcomes import Outcome


def _dummy_trial() -> TrialResult:
    return TrialResult(outcome=Outcome.MASKED, injection_cycle=1, bit=0)


@pytest.fixture(scope="module")
def prepared_g721():
    config = CampaignConfig(trials=8, seed=7)
    return config, prepare(get_workload("g721dec"), "dup_valchk", config)


@pytest.fixture(autouse=True)
def _clean_resilience_env(monkeypatch):
    """Resilience knobs come from explicit config in these tests, not the
    caller's environment."""
    for name in (
        "REPRO_OBS", "REPRO_CHECKPOINT", "REPRO_CHECKPOINT_DIR",
        "REPRO_CHECKPOINT_EVERY", "REPRO_RESILIENCE", "REPRO_MAX_RETRIES",
        "REPRO_TRIAL_DEADLINE",
    ):
        monkeypatch.delenv(name, raising=False)


def _policy(**overrides) -> ResiliencePolicy:
    defaults = dict(enabled=True, checkpoint_every=2, backoff_seconds=0.0)
    defaults.update(overrides)
    return ResiliencePolicy(**defaults)


# ---------------------------------------------------------------------------
# checkpoint files
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, prepared_g721):
    config, prepared = prepared_g721
    reference = run_campaign(
        prepared.workload, "dup_valchk", config, prepared=prepared
    )
    path = tmp_path / "ckpt.json"
    completed = {i: t for i, t in enumerate(reference.trials[:5])}
    save_checkpoint(path, Checkpoint(
        key="k" * 64, workload="g721dec", scheme="dup_valchk",
        trials=config.trials, completed=completed,
        obs_log="/tmp/x.jsonl", obs_log_offset=123,
    ))
    loaded = load_checkpoint(path, "k" * 64, config.trials)
    assert loaded is not None
    # Dataclass equality: every field of every restored trial is bit-exact.
    assert loaded.completed == completed
    assert loaded.obs_log == "/tmp/x.jsonl"
    assert loaded.obs_log_offset == 123


def test_checkpoint_key_or_trials_mismatch_is_ignored(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, Checkpoint(
        key="a" * 64, workload="w", scheme="s", trials=10,
        completed={0: _dummy_trial()},
    ))
    assert load_checkpoint(path, "b" * 64, 10) is None
    assert load_checkpoint(path, "a" * 64, 20) is None
    # A mismatched checkpoint belongs to some other run: left in place.
    assert path.exists()


def test_corrupt_checkpoint_is_quarantined(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, Checkpoint(
        key="a" * 64, workload="w", scheme="s", trials=4,
        completed={0: _dummy_trial()},
    ))
    document = json.loads(path.read_text())
    document["trials"] = 999  # tamper without fixing the checksum
    path.write_text(json.dumps(document))
    assert load_checkpoint(path, "a" * 64, 999) is None
    assert not path.exists()
    quarantined = list((tmp_path / "quarantine").iterdir())
    assert [p.name for p in quarantined] == ["ckpt.json"]


def test_quarantine_file_keeps_all_evidence(tmp_path):
    for body in ("first", "second"):
        victim = tmp_path / "entry.json"
        victim.write_text(body)
        assert durable.quarantine_file(victim) is not None
    names = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
    assert names == ["entry.json", "entry.json.1"]


# ---------------------------------------------------------------------------
# interrupt + resume (the acceptance scenario)
# ---------------------------------------------------------------------------


class _InterruptAfter:
    """on_trial callback that simulates Ctrl-C after ``n`` trials."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def __call__(self, trial) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt


def _run_reference(prepared, config, obs_log):
    ref_cfg = CampaignConfig(
        trials=config.trials, seed=config.seed, jobs=1, obs_log=str(obs_log),
    )
    return run_campaign(
        prepared.workload, "dup_valchk", ref_cfg, prepared=prepared
    )


@pytest.mark.parametrize("resume_jobs", [1, 3])
def test_interrupted_campaign_resumes_byte_identical(
    tmp_path, prepared_g721, resume_jobs
):
    config, prepared = prepared_g721
    reference = _run_reference(prepared, config, tmp_path / "ref.jsonl")

    ckpt = tmp_path / "ckpt.json"
    log = tmp_path / "log.jsonl"
    cfg = CampaignConfig(
        trials=config.trials, seed=config.seed, jobs=1, obs_log=str(log),
        checkpoint=str(ckpt), resilience=_policy(),
    )
    with pytest.raises(KeyboardInterrupt):
        run_campaign(prepared.workload, "dup_valchk", cfg,
                     prepared=prepared, on_trial=_InterruptAfter(4))
    # The interrupt handler force-flushed: the checkpoint is loadable and
    # holds every completed trial.
    assert ckpt.exists()
    loaded = load_checkpoint(
        ckpt, json.loads(ckpt.read_text())["key"], config.trials
    )
    assert loaded is not None and len(loaded.completed) >= 4

    resumed_cfg = CampaignConfig(
        trials=config.trials, seed=config.seed, jobs=resume_jobs,
        obs_log=str(log), checkpoint=str(ckpt), resilience=_policy(),
    )
    seen = []
    resumed = run_campaign(prepared.workload, "dup_valchk", resumed_cfg,
                           prepared=prepared, on_trial=seen.append)
    assert resumed.trials == reference.trials
    assert len(seen) == config.trials  # restored trials still reach on_trial
    assert log.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    assert not ckpt.exists()  # cleared after success

    sidecar_events, _ = read_events(resilience_log_path(str(log)))
    kinds = {e["kind"] for e in sidecar_events if e["event"] == "resilience"}
    assert {"checkpoint_write", "checkpoint_load", "checkpoint_clear"} <= kinds
    # And crucially: nothing leaked into the main log.
    main_events, skipped = read_events(log)
    assert skipped == 0
    assert all(e["event"] != "resilience" for e in main_events)


@pytest.mark.parametrize("resume_jobs", [1, 2])
def test_resume_note_reaches_progress_and_heartbeat(
    tmp_path, prepared_g721, resume_jobs
):
    """A recovery note inside ``run_campaign`` is printed on the progress
    stream and counted as an incident in the heartbeat, and both views end
    on the full tally."""
    _, prepared = prepared_g721
    cfg = CampaignConfig(
        trials=30, seed=7, jobs=1, checkpoint=str(tmp_path / "ckpt.json"),
        resilience=_policy(checkpoint_every=1),
    )
    with pytest.raises(KeyboardInterrupt):
        run_campaign(prepared.workload, "dup_valchk", cfg,
                     prepared=prepared, on_trial=_InterruptAfter(5))

    beat = tmp_path / "hb.json"
    stream = io.StringIO()
    run_campaign(
        prepared.workload, "dup_valchk",
        replace(cfg, jobs=resume_jobs, heartbeat=str(beat)),
        prepared=prepared, progress=stream,
    )
    lines = stream.getvalue().splitlines()
    assert ("  g721dec/dup_valchk: resuming from checkpoint: 5/30 trials "
            "already complete") in lines
    doc = read_heartbeat(beat)
    assert doc["status"] == "done"
    assert doc["trials_done"] == 30
    assert doc["resilience_incidents"] == 1
    assert lines[-1].lstrip().startswith("g721dec/dup_valchk: [30/30]")


def test_parallel_resume_times_the_trials_it_runs(tmp_path, prepared_g721):
    """With ``obs_timing`` on, a ``jobs=2`` resume logs ``wall_ms`` on every
    trial it ran and on none it restored, as a ``jobs=1`` resume does."""
    _, prepared = prepared_g721

    def config(jobs):
        return CampaignConfig(
            trials=40, seed=7, jobs=jobs, obs_log=str(tmp_path / "log.jsonl"),
            obs_timing=True, checkpoint=str(tmp_path / "ckpt.json"),
            resilience=_policy(checkpoint_every=1),
        )

    with pytest.raises(KeyboardInterrupt):
        run_campaign(prepared.workload, "dup_valchk", config(1),
                     prepared=prepared, on_trial=_InterruptAfter(12))
    run_campaign(prepared.workload, "dup_valchk", config(2),
                 prepared=prepared)
    events, _ = read_events(tmp_path / "log.jsonl")
    trials = [e for e in events if e["event"] == "trial"]
    assert [e["i"] for e in trials] == list(range(40))
    assert [e["i"] for e in trials if "wall_ms" in e] == list(range(12, 40))


def test_completed_campaign_matches_unchecked_run(tmp_path, prepared_g721):
    """Checkpointing an undisturbed campaign must not perturb it."""
    config, prepared = prepared_g721
    reference = run_campaign(
        prepared.workload, "dup_valchk", config, prepared=prepared
    )
    cfg = CampaignConfig(
        trials=config.trials, seed=config.seed,
        checkpoint=str(tmp_path / "ckpt.json"), resilience=_policy(),
    )
    result = run_campaign(prepared.workload, "dup_valchk", cfg,
                          prepared=prepared)
    assert result.trials == reference.trials
    assert not (tmp_path / "ckpt.json").exists()


# ---------------------------------------------------------------------------
# worker-failure recovery
# ---------------------------------------------------------------------------

#: the crash wrapper must live at module level so the pool can pickle it by
#: reference; fork-started workers inherit the patched module attribute.
_REAL_RUN_CHUNK = parallel_mod._run_chunk


def _crash_once_run_chunk(chunk):
    flag = os.environ.get("REPRO_TEST_CRASH_FLAG", "")
    if flag and not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("crashed")
        os._exit(9)  # simulate an OOM-killed worker
    return _REAL_RUN_CHUNK(chunk)


def _always_crash_run_chunk(chunk):
    os._exit(9)


def _worker_failure_config(config, log, policy):
    return CampaignConfig(
        trials=config.trials, seed=config.seed, jobs=2,
        obs_log=str(log) if log else None, resilience=policy,
    )


def test_broken_pool_retries_and_stays_byte_identical(
    tmp_path, prepared_g721, monkeypatch
):
    config, prepared = prepared_g721
    reference = _run_reference(prepared, config, tmp_path / "ref.jsonl")

    monkeypatch.setenv("REPRO_TEST_CRASH_FLAG", str(tmp_path / "crashed"))
    monkeypatch.setattr(parallel_mod, "_run_chunk", _crash_once_run_chunk)
    log = tmp_path / "log.jsonl"
    cfg = _worker_failure_config(config, log, _policy(max_retries=2))
    result = run_campaign(prepared.workload, "dup_valchk", cfg,
                          prepared=prepared)
    assert (tmp_path / "crashed").exists()  # a worker really died
    assert result.trials == reference.trials
    assert log.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    sidecar_events, _ = read_events(resilience_log_path(str(log)))
    kinds = [e["kind"] for e in sidecar_events if e["event"] == "resilience"]
    assert "worker_failure" in kinds and "chunk_retry" in kinds


def test_broken_pool_degrades_to_serial(tmp_path, prepared_g721, monkeypatch):
    config, prepared = prepared_g721
    reference = run_campaign(
        prepared.workload, "dup_valchk", config, prepared=prepared
    )
    monkeypatch.setattr(parallel_mod, "_run_chunk", _always_crash_run_chunk)
    log = tmp_path / "log.jsonl"
    cfg = _worker_failure_config(config, log, _policy(max_retries=0))
    result = run_campaign(prepared.workload, "dup_valchk", cfg,
                          prepared=prepared)
    assert result.trials == reference.trials
    sidecar_events, _ = read_events(resilience_log_path(str(log)))
    assert [
        e["kind"] for e in sidecar_events if e["event"] == "resilience"
    ] == ["worker_failure", "serial_fallback"]


def test_broken_pool_fail_policy_propagates(prepared_g721, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    config, prepared = prepared_g721
    monkeypatch.setattr(parallel_mod, "_run_chunk", _always_crash_run_chunk)
    cfg = _worker_failure_config(config, None, _policy(enabled=False))
    with pytest.raises(BrokenProcessPool):
        run_campaign(prepared.workload, "dup_valchk", cfg, prepared=prepared)


def test_retry_budget_exhaustion_falls_back_to_serial(
    prepared_g721, monkeypatch
):
    config, prepared = prepared_g721
    reference = run_campaign(
        prepared.workload, "dup_valchk", config, prepared=prepared
    )
    monkeypatch.setattr(parallel_mod, "_run_chunk", _always_crash_run_chunk)
    cfg = _worker_failure_config(config, None, _policy(max_retries=1))
    result = run_campaign(prepared.workload, "dup_valchk", cfg,
                          prepared=prepared)
    assert result.trials == reference.trials


# ---------------------------------------------------------------------------
# per-trial wall-clock watchdog
# ---------------------------------------------------------------------------

needs_sigalrm = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="watchdog needs SIGALRM"
)


@needs_sigalrm
def test_trial_deadline_raises():
    import time

    with pytest.raises(resilience_mod.HarnessTimeout):
        with resilience_mod.trial_deadline(0.05):
            time.sleep(5)
    # The timer is disarmed on exit: this sleep must survive.
    with resilience_mod.trial_deadline(10.0):
        time.sleep(0.06)


@needs_sigalrm
def test_hung_trial_is_quarantined(tmp_path, prepared_g721, monkeypatch):
    import time

    config, prepared = prepared_g721
    plans = campaign_mod.draw_plans(config, prepared)
    hang_cycle = plans[2].cycle
    real_run_trial = campaign_mod.run_trial

    def hang_on_target(prepared_, cycle, bit, seed, cfg, stats=None):
        if cycle == hang_cycle:
            time.sleep(5)
        return real_run_trial(prepared_, cycle, bit, seed, cfg, stats=stats)

    monkeypatch.setattr(campaign_mod, "run_trial", hang_on_target)
    log = tmp_path / "log.jsonl"
    cfg = CampaignConfig(
        trials=config.trials, seed=config.seed, obs_log=str(log),
        resilience=_policy(trial_deadline_seconds=0.2),
    )
    start = time.perf_counter()
    result = run_campaign(prepared.workload, "dup_valchk", cfg,
                          prepared=prepared)
    assert time.perf_counter() - start < 4  # two 0.2s overruns, not 5s hangs
    quarantined = [
        t for t in result.trials if t.trap_kind == "harness_timeout"
    ]
    assert len(quarantined) == 1
    sidecar_events, _ = read_events(resilience_log_path(str(log)))
    kinds = [e["kind"] for e in sidecar_events if e["event"] == "resilience"]
    assert kinds.count("trial_timeout") == 2  # original + the one requeue
    assert "trial_quarantined" in kinds


def test_watchdog_off_is_passthrough(prepared_g721):
    config, prepared = prepared_g721
    plans = campaign_mod.draw_plans(config, prepared)
    cfg = CampaignConfig(trials=config.trials, seed=config.seed,
                         resilience=_policy(trial_deadline_seconds=0.0))
    trial, anomalies = resilience_mod.run_trial_guarded(
        prepared, 0, plans[0].cycle, plans[0].bit, plans[0].seed, cfg
    )
    assert anomalies == []
    assert trial == campaign_mod.run_trial(
        prepared, plans[0].cycle, plans[0].bit, plans[0].seed, cfg
    )


# ---------------------------------------------------------------------------
# cache integrity quarantine
# ---------------------------------------------------------------------------


def test_corrupt_cache_entry_is_quarantined_and_recomputed(
    tmp_path, prepared_g721
):
    from repro.faultinjection.diskcache import CampaignCache, campaign_key

    config, prepared = prepared_g721
    result = run_campaign(
        prepared.workload, "dup_valchk", config, prepared=prepared
    )
    cache = CampaignCache(root=tmp_path / "cache", enabled=True)
    key = campaign_key(prepared.module, "g721dec", "dup_valchk", config)
    cache.put(key, result)

    # Intact entry round-trips...
    assert cache.get(key).trials == result.trials

    # ...then flip bytes in the stored payload: the load must refuse it.
    path = cache._path(key)
    document = json.loads(path.read_text())
    document["result"]["records"][0]["outcome"] = "USDC"
    path.write_text(json.dumps(document))
    assert cache.get(key) is None
    assert not path.exists()
    quarantined = list((tmp_path / "cache" / "quarantine").iterdir())
    assert len(quarantined) == 1

    # A fresh put repopulates the slot (the "recomputed" half of the story).
    cache.put(key, result)
    assert cache.get(key).trials == result.trials


def test_unparsable_cache_entry_is_quarantined(tmp_path, prepared_g721):
    from repro.faultinjection.diskcache import CampaignCache

    cache = CampaignCache(root=tmp_path / "cache", enabled=True)
    cache.root.mkdir(parents=True)
    path = cache._path("deadbeef")
    path.write_text("{ truncated")
    assert cache.get("deadbeef") is None
    assert not path.exists()
    assert list((tmp_path / "cache" / "quarantine").iterdir())


# ---------------------------------------------------------------------------
# shard hygiene
# ---------------------------------------------------------------------------


def test_failed_parallel_campaign_leaves_no_shards(tmp_path, prepared_g721):
    config, prepared = prepared_g721
    log = tmp_path / "log.jsonl"
    cfg = CampaignConfig(trials=config.trials, seed=config.seed, jobs=2,
                         obs_log=str(log))

    class _Boom(Exception):
        pass

    def explode(trial):
        raise _Boom

    with pytest.raises(_Boom):
        run_campaign(prepared.workload, "dup_valchk", cfg,
                     prepared=prepared, on_trial=explode)
    leftovers = [n for n in os.listdir(tmp_path) if ".shard-" in n]
    assert leftovers == []


# ---------------------------------------------------------------------------
# policy resolution
# ---------------------------------------------------------------------------


def test_policy_reads_env(monkeypatch):
    def env_policy(**explicit):
        return resolve(ResiliencePolicy(**explicit))

    assert env_policy().enabled
    monkeypatch.setenv("REPRO_RESILIENCE", "0")
    assert not env_policy().enabled
    assert env_policy(enabled=True).enabled  # explicit wins
    monkeypatch.setenv("REPRO_RESILIENCE", "1")
    monkeypatch.setenv("REPRO_MAX_RETRIES", "7")
    monkeypatch.setenv("REPRO_TRIAL_DEADLINE", "1.5")
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "3")
    policy = env_policy()
    assert (policy.max_retries, policy.trial_deadline_seconds,
            policy.checkpoint_every) == (7, 1.5, 3)
    # A campaign left without a policy resolves this one.
    assert resolve(CampaignConfig()).resilience == policy


def test_backoff_delay_caps():
    assert resilience_mod.backoff_delay(0.5, 1) == 0.5
    assert resilience_mod.backoff_delay(0.5, 3) == 2.0
    assert resilience_mod.backoff_delay(10.0, 10) == 30.0


def test_jittered_backoff_stays_within_exponential_envelope():
    for attempt in (1, 2, 4):
        pure = resilience_mod.backoff_delay(0.5, attempt)
        delay = resilience_mod.jittered_backoff(0.5, attempt, key="c")
        assert 0.5 * pure <= delay <= pure
        # same key, same attempt → same delay, every time (reproducible)
        assert delay == resilience_mod.jittered_backoff(0.5, attempt, key="c")
    # no key → the historical pure-exponential schedule, unchanged
    assert resilience_mod.jittered_backoff(0.5, 2) == \
        resilience_mod.backoff_delay(0.5, 2)


# ---------------------------------------------------------------------------
# shared checkpoint directories (multi-campaign hygiene)
# ---------------------------------------------------------------------------


def test_shared_checkpoint_dir_keeps_campaigns_apart(tmp_path, prepared_g721):
    """Two campaigns checkpointing into one shared directory (the
    ``REPRO_CHECKPOINT_DIR`` sweep layout: ``checkpoint-<key[:16]>.json``)
    must never clobber, resume from, or quarantine each other's files —
    even when both are interrupted and resumed interleaved."""
    from repro.faultinjection.diskcache import campaign_key

    config_a, prepared = prepared_g721
    config_b = CampaignConfig(trials=config_a.trials, seed=config_a.seed + 1)
    shared = tmp_path / "ckpts"
    shared.mkdir()

    def _keyed(config):
        key = campaign_key(prepared.module, "g721dec", "dup_valchk", config)
        return os.path.join(str(shared), f"checkpoint-{key[:16]}.json")

    ckpt_a, ckpt_b = _keyed(config_a), _keyed(config_b)
    assert ckpt_a != ckpt_b  # different seed → different keyed file

    # a bystander checkpoint with an unrelated key must survive untouched
    decoy = shared / "checkpoint-deadbeefdeadbeef.json"
    save_checkpoint(decoy, Checkpoint(
        key="f" * 64, workload="w", scheme="s", trials=99,
        completed={0: _dummy_trial()},
    ))
    decoy_bytes = decoy.read_bytes()

    references = {}
    for label, config in (("a", config_a), ("b", config_b)):
        references[label] = _run_reference(
            prepared, config, tmp_path / f"ref-{label}.jsonl"
        )

    # interrupt A, then B — both keyed checkpoints now coexist
    for label, config, ckpt in (("a", config_a, ckpt_a),
                                ("b", config_b, ckpt_b)):
        cfg = CampaignConfig(
            trials=config.trials, seed=config.seed, jobs=1,
            obs_log=str(tmp_path / f"log-{label}.jsonl"),
            checkpoint=ckpt, resilience=_policy(),
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(prepared.workload, "dup_valchk", cfg,
                         prepared=prepared, on_trial=_InterruptAfter(4))
    assert os.path.exists(ckpt_a) and os.path.exists(ckpt_b)

    # resume both; each must pick up only its own checkpoint
    for label, config, ckpt in (("a", config_a, ckpt_a),
                                ("b", config_b, ckpt_b)):
        cfg = CampaignConfig(
            trials=config.trials, seed=config.seed, jobs=1,
            obs_log=str(tmp_path / f"log-{label}.jsonl"),
            checkpoint=ckpt, resilience=_policy(),
        )
        resumed = run_campaign(prepared.workload, "dup_valchk", cfg,
                               prepared=prepared)
        assert resumed.trials == references[label].trials
        assert (tmp_path / f"log-{label}.jsonl").read_bytes() == \
            (tmp_path / f"ref-{label}.jsonl").read_bytes()
        assert not os.path.exists(ckpt)  # cleared its own file only

    # hygiene: nothing was quarantined, the bystander file is byte-intact
    assert not (shared / "quarantine").exists()
    assert decoy.read_bytes() == decoy_bytes
