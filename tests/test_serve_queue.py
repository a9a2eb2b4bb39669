"""Unit tests for the service's durable queue machinery.

Covers the admission currency (:mod:`repro.serve.spec`), the append-only
journal + atomic state snapshots (:mod:`repro.serve.journal`), the pure
reducer and fair scheduler (:mod:`repro.serve.queue`), and the deterministic
retry jitter they lean on.  Everything here is pure file/state logic — no
campaigns run.
"""

from __future__ import annotations

import json

import pytest

from repro.durable import AppendLog
from repro.faultinjection.resilience import backoff_delay, jittered_backoff
from repro.serve.journal import (
    load_state_snapshot,
    read_journal,
    save_state_snapshot,
)
from repro.serve.queue import FairScheduler, JobState, QueueState
from repro.serve.spec import CampaignSpec


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


def test_spec_roundtrip_and_describe():
    spec = CampaignSpec(workload="g721dec", scheme="dup", trials=7, seed=3,
                        fault_model="burst", jobs=2, labels={"run": "x"})
    again = CampaignSpec.from_dict(spec.to_dict())
    assert again == spec
    assert "g721dec/dup" in spec.describe()


def test_spec_validation_rejects_garbage():
    ok = CampaignSpec(workload="g721dec", scheme="dup", trials=4)
    assert ok.validate() is None
    bad = [
        CampaignSpec(workload="nope", scheme="dup"),
        CampaignSpec(workload="g721dec", scheme="nope"),
        CampaignSpec(workload="g721dec", scheme="dup", trials=0),
        CampaignSpec(workload="g721dec", scheme="dup", trials=10**9),
        CampaignSpec(workload="g721dec", scheme="dup", fault_model="nope"),
        CampaignSpec(workload="g721dec", scheme="dup", jobs=-1),
    ]
    for spec in bad:
        assert spec.validate() is not None


def test_spec_from_dict_rejects_malformed_shapes():
    # Submissions are untrusted: wrong shapes must raise ValueError (the
    # admission path's quarantine currency), never AttributeError/TypeError
    with pytest.raises(ValueError):
        CampaignSpec.from_dict([1, 2])
    with pytest.raises(ValueError):
        CampaignSpec.from_dict("g721dec")
    with pytest.raises(ValueError):
        CampaignSpec.from_dict({"workload": "g721dec", "labels": 5})


def test_spec_key_is_semantic_only():
    base = CampaignSpec(workload="g721dec", scheme="dup", trials=7, seed=3)
    # jobs and labels are non-semantic; the tenant never enters the spec.
    assert base.key() == CampaignSpec(
        workload="g721dec", scheme="dup", trials=7, seed=3, jobs=4,
        labels={"who": "alice"},
    ).key()
    # an explicit default fault model collapses onto the implicit one
    assert base.key() == CampaignSpec(
        workload="g721dec", scheme="dup", trials=7, seed=3,
        fault_model="single_bit",
    ).key()
    # semantic fields fragment the key
    assert base.key() != CampaignSpec(
        workload="g721dec", scheme="dup", trials=7, seed=4
    ).key()
    assert base.key() != CampaignSpec(
        workload="g721dec", scheme="dup", trials=7, seed=3,
        fault_model="burst",
    ).key()


# ---------------------------------------------------------------------------
# journal + snapshots
# ---------------------------------------------------------------------------


def test_journal_append_read_roundtrip(tmp_path):
    path = tmp_path / "journal.jsonl"
    with AppendLog(path) as journal:
        journal.append({"type": "submit", "job": "a"})
        offset_after_first = journal.offset
        journal.append({"type": "start", "job": "a"})
    records, end = read_journal(path)
    assert [r["type"] for r in records] == ["submit", "start"]
    assert end == path.stat().st_size
    tail, _ = read_journal(path, offset_after_first)
    assert [r["type"] for r in tail] == ["start"]


def test_journal_tolerates_torn_tail_and_junk(tmp_path):
    path = tmp_path / "journal.jsonl"
    with AppendLog(path) as journal:
        journal.append({"type": "submit", "job": "a"})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
        fh.write('{"type": "start", "job": "a"}\n')
        fh.write('{"type": "done", "jo')  # torn tail: SIGKILL mid-append
    records, clean_end = read_journal(path)
    assert [r["type"] for r in records] == ["submit", "start"]
    # the torn bytes are not covered: a snapshot at clean_end replays them
    with open(path, "rb") as fh:
        assert b"done" in fh.read()[clean_end:]


def test_journal_reopen_handles_torn_only_file(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_bytes(b'{"type": "sub')  # no complete line at all
    with AppendLog(path) as journal:
        journal.append({"type": "submit", "job": "a"})
    records, _ = read_journal(path)
    assert [r["type"] for r in records] == ["submit"]


def test_state_snapshot_roundtrip_and_corruption_quarantine(tmp_path):
    path = tmp_path / "state.json"
    state_doc = {"seq": 3, "jobs": []}
    save_state_snapshot(path, state_doc, journal_offset=123)
    loaded = load_state_snapshot(path)
    assert loaded == (state_doc, 123)

    document = json.loads(path.read_text())
    document["journal_offset"] = 999  # tamper without fixing the checksum
    path.write_text(json.dumps(document))
    assert load_state_snapshot(path) is None  # fall back to full replay
    assert not path.exists()
    assert [p.name for p in (tmp_path / "quarantine").iterdir()] == [
        "state.json"
    ]


# ---------------------------------------------------------------------------
# the reducer
# ---------------------------------------------------------------------------


def _submit(state, job_id, tenant="t", key="k"):
    state.apply({"type": "submit", "job": job_id, "tenant": tenant,
                 "spec": {}, "key": key})


def test_reducer_lifecycle_and_counters():
    state = QueueState()
    _submit(state, "a")
    state.apply({"type": "start", "job": "a", "pid": 42})
    assert state.jobs["a"].state == JobState.RUNNING
    assert state.jobs["a"].pid == 42
    state.apply({"type": "done", "job": "a"})
    assert state.jobs["a"].state == JobState.DONE
    assert state.jobs["a"].pid is None
    assert state.counters["submitted"] == 1
    assert state.counters["done"] == 1
    assert state.depth() == 0


def test_reducer_fail_requeues_and_charges_interrupt_does_not():
    state = QueueState()
    _submit(state, "a")
    state.apply({"type": "start", "job": "a", "pid": 1})
    state.apply({"type": "fail", "job": "a", "attempt": 1, "error": "boom"})
    assert state.jobs["a"].state == JobState.QUEUED
    assert state.jobs["a"].attempts == 1
    state.apply({"type": "start", "job": "a", "pid": 2})
    state.apply({"type": "interrupt", "job": "a"})
    assert state.jobs["a"].state == JobState.QUEUED
    assert state.jobs["a"].attempts == 1  # interrupts never charge


def test_reducer_dedup_follower_resolution():
    state = QueueState()
    _submit(state, "primary", key="same")
    state.apply({"type": "dedup", "job": "follower", "tenant": "u",
                 "spec": {}, "key": "same", "primary": "primary"})
    assert state.jobs["follower"].state == JobState.DEDUPED
    state.apply({"type": "start", "job": "primary"})
    state.apply({"type": "done", "job": "primary"})
    assert state.jobs["follower"].state == JobState.DONE

    # a follower arriving after the primary finished is done on arrival
    state.apply({"type": "dedup", "job": "late", "tenant": "u",
                 "spec": {}, "key": "same", "primary": "primary"})
    assert state.jobs["late"].state == JobState.DONE


def test_reducer_quarantine_poisons_followers_too():
    state = QueueState()
    _submit(state, "primary", key="same")
    state.apply({"type": "dedup", "job": "follower", "tenant": "u",
                 "spec": {}, "key": "same", "primary": "primary"})
    state.apply({"type": "quarantine", "job": "primary", "error": "tb"})
    assert state.jobs["primary"].state == JobState.QUARANTINED
    assert state.jobs["follower"].state == JobState.QUARANTINED
    assert "primary" in state.jobs["follower"].error


def test_reducer_ignores_unknown_records():
    state = QueueState()
    state.apply({"type": "from_the_future", "job": "x"})
    state.apply({"type": "done", "job": "never-submitted"})
    state.apply({"not even": "a type"})
    assert state.jobs == {}


def test_active_primary_skips_shed_and_quarantined():
    state = QueueState()
    state.apply({"type": "shed", "job": "s", "tenant": "t", "spec": {},
                 "key": "k", "reason": "full"})
    assert state.active_primary_for("k") is None
    _submit(state, "q", key="k")
    state.apply({"type": "quarantine", "job": "q", "error": "tb"})
    assert state.active_primary_for("k") is None
    _submit(state, "fresh", key="k")
    assert state.active_primary_for("k").id == "fresh"


def test_active_primary_chases_one_hop_through_followers():
    state = QueueState()
    _submit(state, "primary", key="k")
    state.apply({"type": "dedup", "job": "follower", "tenant": "u",
                 "spec": {}, "key": "k", "primary": "primary"})
    # the next same-key submission targets the primary, never the follower
    assert state.active_primary_for("k").id == "primary"


def test_state_snapshot_document_roundtrip():
    state = QueueState()
    _submit(state, "a", tenant="alice")
    state.apply({"type": "start", "job": "a", "pid": 9})
    state.apply({"type": "drain"})
    again = QueueState.from_doc(state.to_doc())
    assert again.to_doc() == state.to_doc()
    assert again.draining is True
    assert again.jobs["a"].state == JobState.RUNNING


def test_replay_equals_incremental_state(tmp_path):
    """The crash-recovery invariant: replaying the journal rebuilds the
    exact state the live service had."""
    records = [
        {"type": "submit", "job": "a", "tenant": "t1", "spec": {}, "key": "x"},
        {"type": "submit", "job": "b", "tenant": "t2", "spec": {}, "key": "y"},
        {"type": "dedup", "job": "c", "tenant": "t3", "spec": {}, "key": "x",
         "primary": "a"},
        {"type": "start", "job": "a", "pid": 1},
        {"type": "fail", "job": "a", "attempt": 1, "error": "boom"},
        {"type": "start", "job": "b", "pid": 2},
        {"type": "done", "job": "b"},
    ]
    live = QueueState()
    path = tmp_path / "journal.jsonl"
    with AppendLog(path) as journal:
        for record in records:
            journal.append(record)
            live.apply(record)
    replayed = QueueState()
    for record in read_journal(path)[0]:
        replayed.apply(record)
    assert replayed.to_doc() == live.to_doc()


# ---------------------------------------------------------------------------
# fair scheduling
# ---------------------------------------------------------------------------


def test_scheduler_round_robin_across_tenants():
    state = QueueState()
    for i in range(3):
        _submit(state, f"big{i}", tenant="big", key=f"b{i}")
    _submit(state, "small0", tenant="small", key="s0")
    scheduler = FairScheduler()
    order = []
    for _ in range(4):
        job = scheduler.pick(state, now=0.0)
        order.append(job.tenant)
        state.apply({"type": "start", "job": job.id})
        state.apply({"type": "done", "job": job.id})
    # the single-job tenant is served second, not behind the 3-job tenant
    assert order.count("small") == 1
    assert order.index("small") <= 1


def test_scheduler_rotates_past_absent_last_tenant():
    state = QueueState()
    _submit(state, "a0", tenant="a", key="ka")
    _submit(state, "c0", tenant="c", key="kc")
    scheduler = FairScheduler()
    # tenant "b" was served last and has nothing queued now; rotation must
    # continue past its sorted position, not reset to the alphabetically
    # first tenant
    scheduler._last_tenant = "b"
    assert scheduler.pick(state, now=0.0).tenant == "c"
    assert scheduler.pick(state, now=0.0).tenant == "a"


def test_scheduler_respects_backoff_delays():
    state = QueueState()
    _submit(state, "a", tenant="t", key="x")
    scheduler = FairScheduler()
    scheduler.delay("a", until=100.0)
    assert scheduler.pick(state, now=99.0) is None
    assert scheduler.pick(state, now=100.0).id == "a"
    scheduler.forget("a")
    assert scheduler.pick(state, now=0.0).id == "a"


def test_scheduler_oldest_job_first_within_tenant():
    state = QueueState()
    _submit(state, "first", tenant="t", key="1")
    _submit(state, "second", tenant="t", key="2")
    assert FairScheduler().pick(state, now=0.0).id == "first"


# ---------------------------------------------------------------------------
# deterministic retry jitter (satellite)
# ---------------------------------------------------------------------------


def test_jittered_backoff_is_deterministic_and_bounded():
    base = 0.5
    for attempt in (1, 2, 3, 5):
        pure = backoff_delay(base, attempt)
        delay = jittered_backoff(base, attempt, key="campaign-key")
        assert delay == jittered_backoff(base, attempt, key="campaign-key")
        assert 0.5 * pure <= delay <= pure


def test_jittered_backoff_desynchronizes_different_keys():
    delays = {
        jittered_backoff(0.5, 2, key=f"campaign-{i}") for i in range(16)
    }
    assert len(delays) > 8  # distinct campaigns spread out


def test_jittered_backoff_without_key_is_pure_exponential():
    for attempt in (1, 2, 3):
        assert jittered_backoff(0.5, attempt) == backoff_delay(0.5, attempt)
    assert jittered_backoff(0.0, 3, key="k") == 0.0
