"""JSONL event schema: round-trips, schema version, corrupt-line tolerance,
and the torn-tail heal every append-only stream shares."""

from __future__ import annotations

import json
import os

import pytest

from repro.durable import AppendLog, canonical_json, read_log
from repro.faultinjection.outcomes import Outcome, TrialResult
from repro.obs.events import (
    SCHEMA_VERSION,
    append_sidecar_event,
    cache_hit_event,
    campaign_begin_event,
    campaign_end_event,
    read_events,
    resilience_log_path,
    trial_event,
)
from repro.serve.journal import read_journal
from repro.sim.faults import InjectionPlan


def _trial(**overrides):
    base = dict(
        outcome=Outcome.SWDETECT, injection_cycle=100, bit=7, landed=True,
        was_live=True, event_cycle=150, value_name="v12", function="main",
        detector_guard=3, detector_kind="range", trap_kind="guard",
    )
    base.update(overrides)
    return TrialResult(**base)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_trial_event_fields_and_version():
    plan = InjectionPlan(cycle=100, bit=7, seed=42)
    event = trial_event(3, plan, _trial())
    assert event["event"] == "trial"
    assert event["v"] == SCHEMA_VERSION
    assert event["i"] == 3
    assert event["cycle"] == 100 and event["bit"] == 7 and event["seed"] == 42
    assert event["outcome"] == "SWDetect"
    assert event["check"] == 3 and event["check_kind"] == "range"
    assert event["trap"] == "guard"
    assert event["latency"] == 50  # 150 - 100
    assert event["register"] == "v12" and event["function"] == "main"
    assert "wall_ms" not in event  # no record reads the wall clock


def test_every_event_kind_carries_schema_version():
    class R:
        workload, scheme = "w", "s"
        golden_instructions = 10
        golden_guard_failures = golden_guard_evaluations = 0
        num_trials = 0

        def counts(self):
            return {}

    for event in (
        campaign_begin_event(R()),
        campaign_end_event(R()),
        cache_hit_event("w", "s", "abc", {"created_unix": 1.0}),
        trial_event(0, InjectionPlan(cycle=1, bit=0, seed=0), _trial()),
    ):
        assert event["v"] == SCHEMA_VERSION


def test_begin_event_excludes_jobs_and_timestamps():
    class R:
        workload, scheme = "w", "s"
        golden_instructions = 10
        golden_guard_failures = golden_guard_evaluations = 0

    event = campaign_begin_event(R())
    assert "jobs" not in event
    assert not any("time" in k or "stamp" in k for k in event)


# ---------------------------------------------------------------------------
# encoding round-trip
# ---------------------------------------------------------------------------


def test_encode_is_canonical_and_round_trips():
    event = {"b": 1, "a": [1, 2], "event": "trial", "v": SCHEMA_VERSION}
    line = canonical_json(event)
    assert "\n" not in line
    assert line == canonical_json(dict(reversed(list(event.items()))))  # sorted keys
    assert json.loads(line) == event


def test_writer_reader_round_trip(tmp_path):
    path = tmp_path / "log.jsonl"
    plan = InjectionPlan(cycle=5, bit=1, seed=9)
    original = [trial_event(i, plan, _trial()) for i in range(4)]
    with AppendLog(path) as log:
        for event in original:
            log.append(event)
    events, skipped = read_events(path)
    assert skipped == 0
    assert events == original


def test_writer_appends_across_openings(tmp_path):
    path = tmp_path / "log.jsonl"
    for _ in range(2):
        with AppendLog(path) as log:
            log.append({"event": "x", "v": SCHEMA_VERSION})
    events, _ = read_events(path)
    assert len(events) == 2


def _append(path, record):
    with AppendLog(path) as log:
        log.append(record)


def _journal_records(path):
    records, skipped, end = read_log(path)
    assert read_journal(path) == (records, end)
    return records, skipped


#: each append-only stream: (the file it writes, its append, its reader)
STREAMS = {
    "trial_log": (str, _append, read_events),
    "sidecar": (
        resilience_log_path, append_sidecar_event,
        lambda path: read_events(resilience_log_path(path)),
    ),
    "journal": (str, _append, _journal_records),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_append_heals_torn_tail(tmp_path, stream):
    """A writer killed mid-line leaves a torn last record; the stream's next
    append drops it instead of gluing itself on, so the record after the
    crash reads back intact and no line counts as garbled."""
    file_of, append, read = STREAMS[stream]
    log = str(tmp_path / "log.jsonl")
    records = [{"event": "x", "v": SCHEMA_VERSION, "i": i} for i in range(4)]
    for record in records[:3]:
        append(log, record)
    path = file_of(log)
    with open(path, "rb+") as fh:
        fh.truncate(os.path.getsize(path) - 9)  # SIGKILL mid-write
    append(log, records[3])
    got, skipped = read(log)
    assert got == records[:2] + records[3:]
    assert skipped == 0


# ---------------------------------------------------------------------------
# corrupt-line tolerance
# ---------------------------------------------------------------------------


def test_reader_skips_corrupt_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    good = canonical_json({"event": "trial", "v": SCHEMA_VERSION, "i": 0}) + "\n"
    path.write_text(
        good
        + "{truncated mid-wri\n"
        + "not json at all\n"
        + "\n"                      # blank lines are fine, not counted
        + '["a", "list", "not", "an", "event"]\n'
        + '{"valid_json": "but no event field"}\n'
        + good
    )
    events, skipped = read_events(path)
    assert len(events) == 2
    assert skipped == 4


def test_reader_preserves_unknown_versions(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        canonical_json({"event": "trial", "v": 999, "future": True}) + "\n"
    )
    events, skipped = read_events(path)
    assert skipped == 0
    assert events[0]["v"] == 999
