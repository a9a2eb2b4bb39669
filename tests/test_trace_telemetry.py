"""Span tracing + live telemetry: determinism differentials and unit tests.

The house invariant under test: tracing (``REPRO_TRACE``/``--trace``) and the
heartbeat (``REPRO_HEARTBEAT``/``--heartbeat``) are pure sidecars — campaign
results, the main obs JSONL log, cache keys, and checkpoints are
byte-identical with them on or off, serial or parallel.  Plus unit coverage
for the trace schema round-trip, the phase summary's self-time accounting,
heartbeat atomicity, the ``repro.obs top`` watcher, and the progress line's
EMA/ETA columns.
"""

from __future__ import annotations

import io
import json
import os
import re
from dataclasses import replace

import pytest

from repro.faultinjection.campaign import CampaignConfig, prepare, run_campaign
from repro.faultinjection.resilience import Checkpoint, save_checkpoint
from repro.obs import trace as trace_mod
from repro.obs.heartbeat import (
    HEARTBEAT_SCHEMA_VERSION,
    LiveStatus,
    format_eta,
    read_heartbeat,
)
from repro.obs.top import render_heartbeat, watch
from repro.obs.trace import (
    load_trace,
    render_summary,
    summarize_trace,
    validate_trace,
)
from repro.settings import ENV_NAMES, resolve
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Fast path on, every other env knob unset, tracer reset."""
    for var in ENV_NAMES:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    yield
    trace_mod.activate(None)


@pytest.fixture(scope="module")
def prepared_g721():
    """One shared prepared workload for every campaign in this file."""
    os.environ["REPRO_FASTPATH"] = "1"
    for var in ("REPRO_SNAPSHOT_EVERY", "REPRO_TRIAGE", "REPRO_TRACE"):
        os.environ.pop(var, None)
    workload = get_workload("g721dec")
    prepared = prepare(workload, "dup_valchk", _base_config())
    return prepared


def _base_config() -> CampaignConfig:
    return CampaignConfig(trials=6, seed=11, snapshot_every=0, triage=False)


def _campaign(prepared, config, log_path):
    cfg = replace(config, obs_log=str(log_path))
    result = run_campaign(prepared.workload, prepared.scheme, cfg,
                          prepared=prepared)
    return result, log_path.read_bytes()


def _trial_records(result):
    from repro.faultinjection.outcomes import trial_to_record

    return [trial_to_record(t) for t in result.trials]


# ---------------------------------------------------------------------------
# differential: tracing/heartbeat must not change anything observable
# ---------------------------------------------------------------------------


def test_trace_differential_byte_identical(tmp_path, prepared_g721):
    """Trace + heartbeat on vs off, serial and jobs=2: identical trial
    records and byte-identical main obs logs."""
    base_cfg = _base_config()
    baseline, base_log = _campaign(
        prepared_g721, base_cfg, tmp_path / "base.jsonl"
    )

    variants = {
        "traced": replace(base_cfg, trace=str(tmp_path / "t1.json")),
        "traced_jobs2": replace(
            base_cfg, jobs=2, trace=str(tmp_path / "t2.json")
        ),
        "traced_heartbeat": replace(
            base_cfg,
            trace=str(tmp_path / "t3.json"),
            heartbeat=str(tmp_path / "hb.json"),
        ),
    }
    for label, cfg in variants.items():
        result, log = _campaign(prepared_g721, cfg, tmp_path / f"{label}.jsonl")
        assert _trial_records(result) == _trial_records(baseline), label
        assert log == base_log, label
        assert os.path.exists(cfg.trace), label

    # Worker span sidecars must never outlive the export.
    leftovers = [n for n in os.listdir(tmp_path) if ".spans-" in n]
    assert leftovers == []

    # The parallel trace records spans from the parent and the workers.
    parallel = load_trace(variants["traced_jobs2"].trace)
    assert validate_trace(parallel) == []
    assert len(summarize_trace(parallel).pids) >= 2

    # The heartbeat variant left a terminal status document behind.
    heartbeat = read_heartbeat(variants["traced_heartbeat"].heartbeat)
    assert heartbeat is not None
    assert heartbeat["status"] == "done"
    assert heartbeat["trials_done"] == base_cfg.trials
    assert sum(heartbeat["outcomes"].values()) == base_cfg.trials


def test_checkpoint_bytes_identical_with_tracing(tmp_path, prepared_g721):
    """A checkpoint built from a traced campaign's trials is byte-identical
    to one built from the untraced run (wall-clock never leaks in)."""
    base_cfg = _base_config()
    baseline, _ = _campaign(prepared_g721, base_cfg, tmp_path / "a.jsonl")
    traced, _ = _campaign(
        prepared_g721,
        replace(base_cfg, trace=str(tmp_path / "trace.json")),
        tmp_path / "b.jsonl",
    )
    paths = []
    for name, result in (("plain.ckpt", baseline), ("traced.ckpt", traced)):
        path = tmp_path / name
        save_checkpoint(path, Checkpoint(
            key="k", workload="g721dec", scheme="dup_valchk",
            trials=base_cfg.trials,
            completed=dict(enumerate(result.trials)),
        ))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_env_var_enables_tracing(tmp_path, prepared_g721, monkeypatch):
    trace_file = tmp_path / "env-trace.json"
    monkeypatch.setenv("REPRO_TRACE", str(trace_file))
    _campaign(prepared_g721, _base_config(), tmp_path / "log.jsonl")
    assert trace_file.exists()
    assert validate_trace(load_trace(trace_file)) == []


# ---------------------------------------------------------------------------
# trace schema round-trip + phase summary
# ---------------------------------------------------------------------------


def test_trace_schema_roundtrip_and_self_time(tmp_path, prepared_g721):
    """Exported trace validates, and per-phase self times account for >=95%
    of the campaign wall time (the telescoping property)."""
    trace_file = tmp_path / "trace.json"
    cfg = replace(_base_config(), trace=str(trace_file))
    _campaign(prepared_g721, cfg, tmp_path / "log.jsonl")

    document = load_trace(trace_file)
    assert validate_trace(document) == []
    assert document["otherData"]["schema"] == trace_mod.TRACE_SCHEMA_VERSION

    summary = summarize_trace(document)
    assert summary.campaign_wall_us > 0
    assert len(summary.campaigns) == 1
    assert summary.campaigns[0]["workload"] == "g721dec"
    assert summary.campaigns[0]["trials"] == cfg.trials
    # Every trial contributes a trial span with replay/classify children.
    assert summary.phases[("trial", "trial")]["count"] == cfg.trials
    assert ("trial", "replay") in summary.phases
    coverage = summary.in_campaign_self_us / summary.campaign_wall_us
    assert coverage >= 0.95

    rendered = render_summary(summary)
    assert "trace phase report" in rendered
    assert "per-phase self time" in rendered
    assert "critical path" in rendered


def test_validate_trace_flags_problems():
    assert validate_trace([]) == ["trace document is not a JSON object"]
    assert validate_trace({}) == ["traceEvents is missing or not an array"]
    assert validate_trace({"traceEvents": []}) == ["traceEvents is empty"]
    bad = {"traceEvents": [
        {"ph": "Z"},
        {"ph": "X", "name": 1, "cat": "c", "ts": 0, "pid": 0, "tid": 0},
        {"ph": "X", "name": "n", "cat": "c", "ts": 0, "pid": 0, "tid": 0},
    ]}
    problems = validate_trace(bad)
    assert any("unknown phase" in p for p in problems)
    assert any("bad 'name'" in p for p in problems)
    assert any("without int 'dur'" in p for p in problems)


def test_null_tracer_is_inert(tmp_path):
    tracer = trace_mod.activate(None)
    assert tracer is trace_mod.current()
    assert not tracer.enabled
    with tracer.span("anything", cat="x", a=1) as span:
        span.add(b=2)
    tracer.instant("mark")
    tracer.export()
    assert os.listdir(tmp_path) == []


def test_resolve_trace_precedence(monkeypatch):
    def trace(value):
        return resolve(CampaignConfig(trace=value)).trace

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert trace(None) == ""
    assert trace("explicit.json") == "explicit.json"
    monkeypatch.setenv("REPRO_TRACE", "from-env.json")
    assert trace(None) == "from-env.json"
    assert trace("explicit.json") == "explicit.json"
    assert trace("") == ""  # explicit off wins
    monkeypatch.setenv("REPRO_TRACE", "off")
    assert trace(None) == ""


# ---------------------------------------------------------------------------
# heartbeat
# ---------------------------------------------------------------------------


def test_heartbeat_roundtrip(tmp_path):
    path = tmp_path / "hb.json"
    status = LiveStatus("g721dec", "dup_valchk", 10, path=str(path),
                        file_interval=0.0)
    status.begin()
    for outcome in ("Masked", "SWDetect", "Masked"):
        status.add([outcome])
    status.incident("chunk retry")
    status.finish("done")

    doc = read_heartbeat(path)
    assert doc["v"] == HEARTBEAT_SCHEMA_VERSION
    assert doc["workload"] == "g721dec"
    assert doc["status"] == "done"
    assert doc["trials_done"] == 3
    assert doc["trials_total"] == 10
    assert doc["outcomes"] == {"Masked": 2, "SWDetect": 1}
    assert doc["resilience_incidents"] == 1
    assert doc["pid"] == os.getpid()


def test_heartbeat_atomic_no_temp_leftovers(tmp_path):
    """Every update is a complete parseable document and the temp files of
    the atomic replace never survive."""
    path = tmp_path / "hb.json"
    status = LiveStatus("w", "s", 50, path=str(path), file_interval=0.0)
    for i in range(50):
        status.add(["Masked"])
        doc = json.loads(path.read_text())
        assert doc["trials_done"] == i + 1
    assert [n for n in os.listdir(tmp_path) if n != "hb.json"] == []


def test_heartbeat_rate_limit(tmp_path):
    path = tmp_path / "hb.json"
    status = LiveStatus("w", "s", 10, path=str(path), file_interval=3600.0)
    status.begin()
    status.add(["Masked"])
    status.add(["Masked"])
    # Inside the interval the file still shows the forced begin() document.
    assert read_heartbeat(path)["trials_done"] == 0
    status.finish("done")  # forced, bypasses the limiter
    assert read_heartbeat(path)["trials_done"] == 2


def test_heartbeat_missing_file_and_resolve(tmp_path, monkeypatch):
    def heartbeat(value):
        return resolve(CampaignConfig(heartbeat=value)).heartbeat

    assert read_heartbeat(tmp_path / "nope.json") is None
    monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
    assert heartbeat(None) == ""
    assert heartbeat("x.json") == "x.json"
    monkeypatch.setenv("REPRO_HEARTBEAT", "env.json")
    assert heartbeat(None) == "env.json"


# ---------------------------------------------------------------------------
# repro.obs top
# ---------------------------------------------------------------------------


def test_render_heartbeat_frame():
    doc = {
        "v": 1, "workload": "g721dec", "scheme": "dup_valchk",
        "status": "running", "trials_done": 30, "trials_total": 60,
        "outcomes": {"Masked": 20, "SWDetect": 10},
        "trials_per_sec": 100.0, "trials_per_sec_ema": 120.0,
        "eta_seconds": 75.0, "elapsed_seconds": 0.3,
        "resilience_incidents": 2, "pid": 1, "updated_unix": 1000.0,
    }
    frame = render_heartbeat(doc, now_unix=1001.0)
    assert "g721dec/dup_valchk" in frame
    assert "30/60" in frame
    assert "120.0 ema" in frame
    assert "eta 01:15" in frame
    assert "Masked=20" in frame
    assert "resilience incidents: 2" in frame
    assert "STALE" not in frame
    # A running heartbeat that stopped updating is flagged.
    assert "STALE" in render_heartbeat(doc, now_unix=1000.0 + 60)


def test_watch_once_exit_codes(tmp_path):
    missing = io.StringIO()
    assert watch(str(tmp_path / "nope.json"), once=True, stream=missing) == 1
    assert "no heartbeat" in missing.getvalue()

    path = tmp_path / "hb.json"
    LiveStatus("w", "s", 4, path=str(path)).begin()
    present = io.StringIO()
    assert watch(str(path), once=True, stream=present) == 0
    assert "w/s" in present.getvalue()


def test_watch_until_done(tmp_path):
    path = tmp_path / "hb.json"
    LiveStatus("w", "s", 4, path=str(path)).finish("done")
    stream = io.StringIO()
    assert watch(str(path), interval=0.0, until_done=True, stream=stream) == 0


# ---------------------------------------------------------------------------
# progress line EMA / ETA
# ---------------------------------------------------------------------------


def test_progress_printer_ema_and_eta():
    stream = io.StringIO()
    status = LiveStatus("demo", "s", 10, stream=stream, line_interval=0.0)
    for _ in range(3):
        status.add(["Masked"])
    assert status.rate_ema is not None and status.rate_ema > 0
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 3
    assert "trials/s" in lines[-1]
    assert "ema)" in lines[-1]
    assert "eta" in lines[-1]
    assert "masked=3" in lines[-1]


def test_progress_printer_final_line_drops_eta():
    stream = io.StringIO()
    status = LiveStatus("w", "s", 10, stream=stream, line_interval=3600.0)
    for _ in range(4):
        status.add(["Masked"])
    # First trial prints immediately; 2-4 fall inside the rate limit.
    assert len(stream.getvalue().splitlines()) == 1
    status.finish()
    final = stream.getvalue().splitlines()[-1]
    assert "[4/10]" in final
    assert final.rstrip().endswith("(done)")
    assert "eta" not in final
    before = stream.getvalue()
    status.finish()  # idempotent
    assert stream.getvalue() == before


def test_progress_eta_formatting():
    """One formatter serves the progress line and ``repro.obs top``."""
    assert format_eta(None) == "--:--"
    assert format_eta(65) == "01:05"
    assert format_eta(3 * 3600 + 62) == "3:01:02"
    stream = io.StringIO()
    status = LiveStatus("w", "s", 10, stream=stream, line_interval=0.0)
    status.add(["Masked"])
    assert re.search(r" eta \d{2}:\d{2} masked=1$", stream.getvalue())
