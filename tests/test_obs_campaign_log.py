"""Campaign observability integration: trial logs, provenance, progress.

The acceptance bar: a campaign run with an obs log produces a JSONL record
stream whose per-trial outcome tallies exactly match the returned
:class:`CampaignResult`, with ``jobs=N`` logs byte-identical to ``jobs=1``;
disk-cache hits emit ``cache_hit`` provenance instead of going dark; and the
live status's progress line flushes its final line on completion.
"""

from __future__ import annotations

import io
import json
import os
from collections import Counter
from dataclasses import replace

import pytest

from repro.experiments import ExperimentCache, ExperimentSettings
from repro.faultinjection import (
    CampaignCache,
    CampaignConfig,
    Outcome,
    prepare,
    run_campaign,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as trace_mod
from repro.obs.events import read_events
from repro.obs.heartbeat import LiveStatus, read_heartbeat
from repro.obs.report import LogReport
from repro.settings import resolve
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def prepared_tiff():
    config = CampaignConfig(trials=10, seed=5)
    return config, prepare(get_workload("tiff2bw"), "dup_valchk", config)


@pytest.fixture(autouse=True)
def _fresh_global_registry():
    yield
    obs_metrics.reset_global()


# ---------------------------------------------------------------------------
# trial log contents
# ---------------------------------------------------------------------------


def test_log_tallies_match_campaign_result(tmp_path, prepared_tiff):
    config, prepared = prepared_tiff
    log = tmp_path / "c.jsonl"
    cfg = replace(config, obs_log=str(log))
    result = run_campaign(prepared.workload, "dup_valchk", cfg, prepared=prepared)

    events, skipped = read_events(log)
    assert skipped == 0
    trials = [e for e in events if e["event"] == "trial"]
    assert len(trials) == result.num_trials
    tally = Counter(e["outcome"] for e in trials)
    assert {o.value: tally.get(o.value, 0) for o in Outcome} == result.counts()
    # plan order, one record per trial, matching the result's plans
    assert [e["i"] for e in trials] == list(range(len(trials)))
    assert [e["cycle"] for e in trials] == [
        t.injection_cycle for t in result.trials
    ]
    # header and footer bracket the trials
    assert events[0]["event"] == "campaign_begin"
    assert events[0]["workload"] == "tiff2bw"
    assert events[-1]["event"] == "campaign_end"
    assert events[-1]["counts"] == result.counts()


def test_detected_trials_carry_check_and_latency(tmp_path, prepared_tiff):
    config, prepared = prepared_tiff
    log = tmp_path / "c.jsonl"
    cfg = replace(config, trials=30, obs_log=str(log))
    result = run_campaign(prepared.workload, "dup_valchk", cfg, prepared=prepared)
    sw = [t for t in result.trials if t.outcome is Outcome.SWDETECT]
    assert sw, "expected at least one SWDetect in 30 trials"
    events, _ = read_events(log)
    sw_events = [e for e in events
                 if e["event"] == "trial" and e["outcome"] == "SWDetect"]
    assert len(sw_events) == len(sw)
    for event in sw_events:
        assert event["check"] is not None
        assert event["check_kind"] in ("eq", "range", "values")
        assert event["trap"] == "guard"
        assert event["latency"] == event["event_cycle"] - event["cycle"] >= 0


def test_serial_and_parallel_logs_byte_identical(tmp_path, prepared_tiff):
    config, prepared = prepared_tiff
    serial_log = tmp_path / "serial.jsonl"
    parallel_log = tmp_path / "parallel.jsonl"
    serial = run_campaign(
        prepared.workload, "dup_valchk",
        replace(config, obs_log=str(serial_log)), prepared=prepared,
    )
    parallel = run_campaign(
        prepared.workload, "dup_valchk",
        replace(config, jobs=4, obs_log=str(parallel_log)), prepared=prepared,
    )
    assert parallel.trials == serial.trials
    assert parallel_log.read_bytes() == serial_log.read_bytes()
    assert not list(tmp_path.glob("*.shard-*"))  # all shards merged + removed


def test_pool_workers_write_no_files(tmp_path, prepared_tiff):
    """Workers hand their trials and spans back with each chunk's result:
    mid-run, a traced and logged ``jobs=2`` campaign's directory holds only
    the log — no per-chunk shard or per-worker span files."""
    config, prepared = prepared_tiff
    cfg = replace(
        config, trials=48, jobs=2, obs_log=str(tmp_path / "log.jsonl"),
        trace=str(tmp_path / "trace.json"),
    )
    listings = []
    try:
        run_campaign(
            prepared.workload, "dup_valchk", cfg, prepared=prepared,
            on_trial=lambda trial: listings.append(os.listdir(tmp_path)),
        )
    finally:
        trace_mod.activate(None)
    assert len(listings) == cfg.trials
    assert all(names == ["log.jsonl"] for names in listings), listings[-1]


def test_obs_env_var_enables_logging(tmp_path, monkeypatch, prepared_tiff):
    config, prepared = prepared_tiff
    log = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_OBS", str(log))
    run_campaign(prepared.workload, "dup_valchk", config, prepared=prepared)
    events, _ = read_events(log)
    assert any(e["event"] == "trial" for e in events)


def test_no_log_without_configuration(tmp_path, monkeypatch, prepared_tiff):
    config, prepared = prepared_tiff
    monkeypatch.delenv("REPRO_OBS", raising=False)
    run_campaign(prepared.workload, "dup_valchk", config, prepared=prepared)
    assert list(tmp_path.iterdir()) == []


def test_resolve_obs_config_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "/env/path.jsonl")
    monkeypatch.setenv("REPRO_OBS_TIMING", "1")
    explicit = CampaignConfig(obs_log="/explicit.jsonl")
    resolved = resolve(explicit)
    assert resolved.obs_log == "/explicit.jsonl"
    assert resolved.obs_timing  # env fills the gap
    off = resolve(CampaignConfig(obs_log="", obs_timing=False))
    assert off.obs_log == "" and off.obs_timing is False  # explicit off wins
    monkeypatch.delenv("REPRO_OBS_TIMING", raising=False)
    monkeypatch.delenv("REPRO_OBS", raising=False)
    plain = resolve(CampaignConfig())
    assert plain.obs_log == "" and not plain.obs_timing


def test_explicit_timing_off_beats_the_environment(
    tmp_path, monkeypatch, prepared_tiff
):
    """``obs_timing=False`` is an explicit off: ``REPRO_OBS_TIMING=1`` must
    not put wall-clock fields into the log."""
    config, prepared = prepared_tiff
    log = tmp_path / "untimed.jsonl"
    monkeypatch.setenv("REPRO_OBS_TIMING", "1")
    run_campaign(
        prepared.workload, "dup_valchk",
        replace(config, obs_timing=False, obs_log=str(log)),
        prepared=prepared,
    )
    trials = [e for e in read_events(log)[0] if e["event"] == "trial"]
    assert trials and not any("wall_ms" in e for e in trials)


def test_torn_last_line_does_not_swallow_the_next_campaign(tmp_path):
    """A killed writer leaves a partial last line; the next campaign
    appending to the same log drops it instead of gluing its header on."""
    log = tmp_path / "torn.jsonl"
    config = CampaignConfig(trials=12, obs_log=str(log))
    run_campaign(get_workload("tiff2bw"), "dup", config)
    with open(log, "rb+") as fh:
        fh.truncate(os.path.getsize(log) - 9)  # SIGKILL mid-write
    run_campaign(get_workload("g721dec"), "dup", config)

    report = LogReport.from_paths([log])
    assert [c["workload"] for c in report.campaigns] == ["tiff2bw", "g721dec"]
    assert report.skipped_lines == 0


def test_timing_opt_in_adds_wall_ms(tmp_path, prepared_tiff):
    config, prepared = prepared_tiff
    log = tmp_path / "timed.jsonl"
    cfg = replace(config, trials=4, obs_log=str(log), obs_timing=True)
    run_campaign(prepared.workload, "dup_valchk", cfg, prepared=prepared)
    events, _ = read_events(log)
    trials = [e for e in events if e["event"] == "trial"]
    assert trials and all("wall_ms" in e for e in trials)


# ---------------------------------------------------------------------------
# campaign metrics
# ---------------------------------------------------------------------------


def test_campaign_records_metrics_when_enabled(tmp_path, prepared_tiff):
    config, prepared = prepared_tiff
    registry = obs_metrics.enable_global()
    registry.reset()
    run_campaign(
        prepared.workload, "dup_valchk",
        replace(config, obs_log=str(tmp_path / "m.jsonl")), prepared=prepared,
    )
    snap = registry.snapshot()
    assert snap["sim.instructions"] > 0  # interpreter-level funnel fired
    # Counters only: outcome, check and latency tallies live in the obs log,
    # the campaign's wall time in its trace.
    assert all(type(value) is int for value in snap.values())
    copied = ("campaign.outcome.", "campaign.check.", "campaign.wall",
              "campaign.detection_latency_cycles", "campaign.cache_hits")
    assert not [name for name in snap if name.startswith(copied)]


# ---------------------------------------------------------------------------
# cache-hit provenance
# ---------------------------------------------------------------------------


def test_cache_hit_emits_provenance_event(tmp_path):
    obs_log = tmp_path / "obs.jsonl"
    disk = CampaignCache(root=tmp_path / "cache", enabled=True)
    settings = ExperimentSettings(
        trials=4, workloads=("tiff2bw",), obs_log=str(obs_log)
    )

    first = ExperimentCache(settings, disk_cache=disk)
    original = first.campaign("tiff2bw", "dup")
    events, _ = read_events(obs_log)
    assert sum(e["event"] == "trial" for e in events) == 4
    assert not any(e["event"] == "cache_hit" for e in events)

    second = ExperimentCache(settings, disk_cache=disk)
    restored = second.campaign("tiff2bw", "dup")
    assert restored.counts() == original.counts()
    events, _ = read_events(obs_log)
    hits = [e for e in events if e["event"] == "cache_hit"]
    assert len(hits) == 1
    hit = hits[0]
    assert hit["workload"] == "tiff2bw" and hit["scheme"] == "dup"
    assert len(hit["key"]) == 64  # sha256 hex
    assert hit["meta"]["trials"] == 4
    assert hit["meta"]["created_unix"] > 0
    assert "created_iso" in hit["meta"]
    # no new trial events were appended by the cached run
    assert sum(e["event"] == "trial" for e in events) == 4


def test_cache_entry_meta_round_trip(tmp_path, prepared_tiff):
    config, prepared = prepared_tiff
    result = run_campaign(prepared.workload, "dup_valchk",
                          replace(config, trials=3), prepared=prepared)
    cache = CampaignCache(root=tmp_path, enabled=True)
    cache.put("k" * 64, result)
    entry = cache.get_entry("k" * 64)
    assert entry is not None
    restored, meta = entry
    assert restored.trials == result.trials
    assert meta["workload"] == "tiff2bw" and meta["trials"] == 3


def test_legacy_unwrapped_cache_entry_still_readable(tmp_path, prepared_tiff):
    config, prepared = prepared_tiff
    result = run_campaign(prepared.workload, "dup_valchk",
                          replace(config, trials=3), prepared=prepared)
    cache = CampaignCache(root=tmp_path, enabled=True)
    (tmp_path / "campaign-legacy.json").write_text(json.dumps(result.to_dict()))
    entry = cache.get_entry("legacy")
    assert entry is not None
    restored, meta = entry
    assert restored.trials == result.trials
    assert meta == {}


# ---------------------------------------------------------------------------
# progress line
# ---------------------------------------------------------------------------


def test_progress_finish_flushes_unprinted_tail():
    stream = io.StringIO()
    # total overestimates the executed trials (partially cached sweep), and
    # the rate limit swallows every line after the first: without finish()
    # the last trials would go silently unprinted.
    status = LiveStatus("w", "s", 100, stream=stream, line_interval=3600.0)
    for _ in range(5):
        status.add(["Masked"])
    assert "[1/100]" in stream.getvalue()
    assert "[5/100]" not in stream.getvalue()
    status.finish()
    assert "[5/100]" in stream.getvalue()
    assert "(done)" in stream.getvalue()


def test_progress_finish_is_idempotent():
    stream = io.StringIO()
    status = LiveStatus("w", "s", 2, stream=stream, line_interval=0.0)
    status.add(["Masked"])
    status.add(["Masked"])
    before = stream.getvalue()
    status.finish()
    status.finish()
    assert stream.getvalue() == before  # final state already printed


def test_progress_finish_no_output_for_zero_trials():
    stream = io.StringIO()
    status = LiveStatus("w", "s", 10, stream=stream)
    status.finish()
    assert stream.getvalue() == ""


def test_progress_tallies_match_heartbeat_in_outcome_order(tmp_path):
    """One tally feeds both views: the line lists outcomes in ``Outcome``
    order, the file sorts them by name, and a failed campaign's unprinted
    tail ends ``(failed)``."""
    stream = io.StringIO()
    path = tmp_path / "hb.json"
    status = LiveStatus("w", "s", 10, path=str(path), stream=stream,
                        line_interval=3600.0)
    status.add([o.value for o in reversed(Outcome)])
    status.add(["SWDetect"])
    assert len(stream.getvalue().splitlines()) == 1
    status.finish("failed")
    line = stream.getvalue().splitlines()[-1]
    assert line.startswith("  w/s: [6/10] ")
    assert line.endswith(" masked=1 hw=1 sw=2 fail=1 usdc=1 (failed)")
    doc = read_heartbeat(path)
    assert doc["status"] == "failed"
    assert doc["outcomes"] == {
        "Failure": 1, "HWDetect": 1, "Masked": 1, "SWDetect": 2, "USDC": 1,
    }
