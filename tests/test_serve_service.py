"""End-to-end tests for the ``repro.serve`` campaign service.

The invariant under test is the house rule extended to the service layer:
a campaign routed through the durable queue — admitted, deduped, crashed,
restarted, drained — produces **byte-identical** results, obs logs, and
cache entries to a direct in-process run of the same spec.  The service may
only ever add bookkeeping, never change campaign bytes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faultinjection.campaign import CampaignConfig, prepare, run_campaign
from repro.faultinjection.diskcache import campaign_key
from repro.obs.heartbeat import effective_status, pid_alive
from repro.obs.top import render_service, watch
from repro.serve.client import (
    load_queue_state,
    result_for,
    service_status,
    submit_to_inbox,
)
from repro.serve.queue import JobState
from repro.serve.service import Service, ServiceConfig
from repro.serve.spec import CampaignSpec
from repro.serve.worker import EXIT_FAILED, EXIT_INTERRUPTED, job_paths
from repro.serve import service as service_mod
from repro.settings import ENV_NAMES
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _clean_serve_env(monkeypatch):
    """Service behaviour comes from explicit config here, not the caller's
    shell; the disk cache is off unless a test opts in."""
    for name in ENV_NAMES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_CACHE", "0")


def _config(root, **overrides) -> ServiceConfig:
    defaults = dict(
        root=str(root), workers=1, inline=True, until_idle=True,
        backoff_seconds=0.0, poll_interval=0.01, snapshot_every=5,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _spec(**overrides) -> CampaignSpec:
    defaults = dict(workload="g721dec", scheme="dup", trials=6, seed=11)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _reference_result(spec: CampaignSpec) -> dict:
    config = CampaignConfig(
        trials=spec.trials, seed=spec.seed, jobs=spec.jobs,
        swap_train_test=spec.swap_train_test,
        fault_model=spec.fault_model or "single_bit",
    )
    prepared = prepare(get_workload(spec.workload), spec.scheme, config)
    return run_campaign(
        prepared.workload, spec.scheme, config, prepared=prepared
    ).to_dict()


# ---------------------------------------------------------------------------
# inline end-to-end: admission, dedup, results
# ---------------------------------------------------------------------------


def test_inline_service_runs_and_dedups(tmp_path):
    root = tmp_path / "svc"
    spec = _spec()
    a = submit_to_inbox(root, spec, tenant="alice")
    b = submit_to_inbox(root, spec, tenant="bob")       # same key → follower
    c = submit_to_inbox(root, _spec(seed=12), tenant="bob")
    assert Service(_config(root)).run() == 0

    state = load_queue_state(root)
    assert {state.jobs[j].state for j in (a, b, c)} == {JobState.DONE}
    assert state.counters["deduped"] == 1
    assert state.counters["done"] == 2  # one execution for a+b, one for c

    # one execution, N answers: the follower reads the primary's bytes
    result_a = result_for(root, a)
    assert result_a is not None and result_a["trials"] == spec.trials
    assert result_for(root, b) == result_a
    # and the service never changed campaign bytes
    assert result_a == _reference_result(spec)
    assert result_for(root, c) == _reference_result(_spec(seed=12))

    # the follower has no job directory of its own — no duplicate artifacts
    primary_id = state.jobs[b].primary
    assert primary_id == a
    assert not os.path.exists(job_paths(root, b).directory)

    # terminal heartbeat + service status round-trip
    status = service_status(root)
    assert status["kind"] == "service" and status["status"] == "stopped"
    assert "campaign service" in render_service(status)


def test_obs_log_byte_identical_to_direct_run(tmp_path):
    spec = _spec(trials=8, seed=3)
    root = tmp_path / "svc"
    job = submit_to_inbox(root, spec)
    assert Service(_config(root)).run() == 0

    ref_log = tmp_path / "ref.jsonl"
    config = CampaignConfig(
        trials=spec.trials, seed=spec.seed, obs_log=str(ref_log),
    )
    prepared = prepare(get_workload(spec.workload), spec.scheme, config)
    run_campaign(prepared.workload, spec.scheme, config, prepared=prepared)

    service_log = job_paths(root, job).obs_log
    assert open(service_log, "rb").read() == ref_log.read_bytes()


def test_admission_sheds_invalid_and_bounds_depth(tmp_path):
    service = Service(_config(tmp_path / "svc", max_depth=2))
    service.recover()
    try:
        bad = service.submit(_spec(workload="nope"), tenant="t")
        assert bad.state == JobState.SHED and "invalid spec" in bad.error

        jobs = [service.submit(_spec(seed=100 + i)) for i in range(3)]
        assert [j.state for j in jobs] == [
            JobState.QUEUED, JobState.QUEUED, JobState.SHED,
        ]
        assert "queue full" in jobs[2].error
        assert service.state.depth() == 2

        # same-key submissions dedup instead of consuming depth
        follower = service.submit(_spec(seed=100), tenant="other")
        assert follower.state == JobState.DEDUPED
        assert service.state.depth() == 2

        # inbox replay after a crash is idempotent: same id → same job,
        # no new journal record
        before = dict(service.state.counters)
        again = service.submit(_spec(seed=100), job_id=jobs[0].id)
        assert again is service.state.jobs[jobs[0].id]
        assert service.state.counters == before
        assert service.state.counters["admitted"] == 2
    finally:
        service.journal.close()


def test_malformed_inbox_drop_is_quarantined_not_fatal(tmp_path):
    """A hostile-shaped (but valid-JSON) submission must never crash the
    service loop — a poison file surviving in the inbox would wedge every
    restart."""
    root = tmp_path / "svc"
    good = submit_to_inbox(root, _spec())
    paths = service_mod.service_paths(root)
    with open(os.path.join(paths.inbox, "poison1.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"id": "p1", "spec": [1, 2]}, fh)          # list spec
    with open(os.path.join(paths.inbox, "poison2.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"id": "p2", "spec": {"workload": "g721dec",
                                        "scheme": "dup",
                                        "labels": 5}}, fh)   # scalar labels
    assert Service(_config(root)).run() == 0

    state = load_queue_state(root)
    assert state.jobs[good].state == JobState.DONE
    qdir = os.path.join(paths.inbox, "quarantine")
    assert sorted(os.listdir(qdir)) == ["poison1.json", "poison2.json"]
    # the inbox is clean: a restart admits nothing and exits idle
    assert Service(_config(root)).run() == 0


# ---------------------------------------------------------------------------
# retries, quarantine, interrupts (worker behaviour stubbed)
# ---------------------------------------------------------------------------


def test_poison_job_is_quarantined_with_evidence(tmp_path, monkeypatch):
    root = tmp_path / "svc"
    calls = []

    def _always_dies(svc_root, job_id, spec=None):
        calls.append(job_id)
        paths = job_paths(svc_root, job_id)
        os.makedirs(paths.directory, exist_ok=True)
        with open(paths.error, "w", encoding="utf-8") as fh:
            fh.write("Traceback: synthetic poison\n")
        return EXIT_FAILED

    monkeypatch.setattr(service_mod, "execute_job", _always_dies)
    poison = submit_to_inbox(root, _spec(), tenant="alice")
    follower = submit_to_inbox(root, _spec(), tenant="bob")
    assert Service(_config(root, max_job_retries=3)).run() == 0

    state = load_queue_state(root)
    job = state.jobs[poison]
    assert job.state == JobState.QUARANTINED
    assert len(calls) == 3 and job.attempts == 3  # retried, then parked
    assert "synthetic poison" in job.error
    assert state.counters["failed"] == 2
    assert state.counters["quarantined"] == 1
    # the follower is poisoned with it — nobody waits forever
    assert state.jobs[follower].state == JobState.QUARANTINED


def test_interrupt_requeues_without_charging_retries(tmp_path, monkeypatch):
    root = tmp_path / "svc"
    codes = [EXIT_INTERRUPTED, EXIT_INTERRUPTED, EXIT_FAILED]

    def _flaky(svc_root, job_id, spec=None):
        if codes:
            code = codes.pop(0)
            if code != EXIT_FAILED:
                return code
            paths = job_paths(svc_root, job_id)
            os.makedirs(paths.directory, exist_ok=True)
            with open(paths.error, "w", encoding="utf-8") as fh:
                fh.write("one real failure")
            return code
        from repro.serve.worker import execute_job
        return execute_job(svc_root, job_id, spec=spec)

    monkeypatch.setattr(service_mod, "execute_job", _flaky)
    job_id = submit_to_inbox(root, _spec())
    assert Service(_config(root, max_job_retries=3)).run() == 0

    state = load_queue_state(root)
    job = state.jobs[job_id]
    # 2 interrupts (uncharged) + 1 real failure (charged) + success
    assert job.state == JobState.DONE
    assert job.attempts == 1
    assert state.counters["interrupted"] == 2
    assert state.counters["failed"] == 1
    assert result_for(root, job_id) == _reference_result(_spec())


def test_retry_backoff_is_jittered_per_job_key(tmp_path, monkeypatch):
    root = tmp_path / "svc"
    delays = []
    monkeypatch.setattr(service_mod, "execute_job",
                        lambda *a, **k: EXIT_FAILED)
    real_jitter = service_mod.jittered_backoff

    def _spy(base, attempt, key=""):
        delay = real_jitter(base, attempt, key=key)
        delays.append((key, attempt, delay))
        return 0.0  # don't actually sleep in the test

    monkeypatch.setattr(service_mod, "jittered_backoff", _spy)
    submit_to_inbox(root, _spec(seed=1))
    submit_to_inbox(root, _spec(seed=2))
    assert Service(
        _config(root, max_job_retries=3, backoff_seconds=0.5)
    ).run() == 0

    # both jobs retried twice before quarantine, each with its own schedule
    by_key = {}
    for key, attempt, delay in delays:
        by_key.setdefault(key, []).append(delay)
    assert len(by_key) == 2
    first, second = by_key.values()
    assert first != second  # different content keys → desynchronized
    for schedule in (first, second):
        assert all(d > 0 for d in schedule)


# ---------------------------------------------------------------------------
# crash-kill-restart: the acceptance invariant
# ---------------------------------------------------------------------------


def _serve_cmd(root, workers):
    return [
        sys.executable, "-m", "repro.serve", "run", "--root", str(root),
        "--workers", str(workers), "--until-idle",
    ]


def _serve_env(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    env["REPRO_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_CHECKPOINT_EVERY"] = "5"
    return env


def _wait(predicate, timeout=120.0, poll=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


@pytest.mark.slow
@pytest.mark.parametrize("spec_jobs", [1, 2])
def test_sigkill_service_resume_is_byte_identical(tmp_path, spec_jobs):
    """SIGKILL the service with >=3 jobs in flight; the restarted service
    resumes every job from its checkpoint and finishes with results, obs
    logs, and cache entries byte-identical to direct runs."""
    root = tmp_path / "svc"
    cache_dir = tmp_path / "cache"
    specs = [
        _spec(scheme="dup_valchk", trials=40, seed=1, jobs=spec_jobs),
        _spec(scheme="dup", trials=40, seed=2, jobs=spec_jobs),
        _spec(scheme="original", trials=40, seed=3),
    ]
    ids = [submit_to_inbox(root, s, tenant=f"t{i}")
           for i, s in enumerate(specs)]
    env = _serve_env(cache_dir)

    proc = subprocess.Popen(_serve_cmd(root, 3), env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.STDOUT)
    try:
        assert _wait(lambda: sum(
            1 for j in load_queue_state(root).jobs.values()
            if j.state == JobState.RUNNING
        ) >= 3), "3 jobs never reached RUNNING"
        proc.kill()  # SIGKILL: no cleanup, no journal flush beyond the OS's
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()

    # restart: recovery requeues the casualties and runs them to completion
    rerun = subprocess.run(_serve_cmd(root, 3), env=env, timeout=600,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.STDOUT)
    assert rerun.returncode == 0

    state = load_queue_state(root)
    assert all(state.jobs[i].state == JobState.DONE for i in ids)
    assert state.counters.get("interrupted", 0) >= 1

    for spec, job_id in zip(specs, ids):
        paths = job_paths(root, job_id)
        # 1. the result document is byte-identical to a direct run
        ref_log = tmp_path / f"ref-{job_id}.jsonl"
        config = CampaignConfig(
            trials=spec.trials, seed=spec.seed, jobs=spec.jobs,
            swap_train_test=spec.swap_train_test,
            fault_model=spec.fault_model or "single_bit",
            obs_log=str(ref_log),
        )
        prepared = prepare(get_workload(spec.workload), spec.scheme, config)
        reference = run_campaign(
            prepared.workload, spec.scheme, config, prepared=prepared
        )
        assert json.load(open(paths.result)) == reference.to_dict(), \
            f"{spec.describe()}: result diverged across kill-resume"
        # 2. the obs log is byte-identical, including the rewound tail
        assert open(paths.obs_log, "rb").read() == ref_log.read_bytes(), \
            f"{spec.describe()}: obs log diverged across kill-resume"
        # 3. the shared cache entry carries the same result payload
        key = campaign_key(prepared.module, spec.workload, spec.scheme,
                           config)
        entry = json.load(open(cache_dir / f"campaign-{key}.json"))
        assert entry["result"] == reference.to_dict(), \
            f"{spec.describe()}: cache entry diverged"


def test_recover_spares_unrelated_process_on_recycled_pid(tmp_path):
    """After downtime the recorded worker pid may belong to someone else;
    recovery must verify the cmdline before killing."""
    root = tmp_path / "svc"
    bystander = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(120)"])
    try:
        service = Service(_config(root))
        service.recover()
        job = service.submit(_spec())
        service._record({"type": "start", "job": job.id,
                         "pid": bystander.pid})
        service.journal.close()

        restarted = Service(_config(root))
        restarted.recover()
        restarted.journal.close()
        assert bystander.poll() is None  # innocent process untouched
        state = load_queue_state(root)
        assert state.jobs[job.id].state == JobState.QUEUED  # still requeued
    finally:
        bystander.kill()
        bystander.wait()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="worker verification reads /proc cmdline")
def test_recover_kills_cmdline_verified_orphan_worker(tmp_path):
    root = tmp_path / "svc"
    service = Service(_config(root))
    service.recover()
    job = service.submit(_spec())
    orphan = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(120)",
         "exec-job", "--job", job.id])
    try:
        # wait for exec() to land so /proc/<pid>/cmdline shows the worker
        # argv (before that, verification conservatively skips the kill)
        assert _wait(
            lambda: service_mod._pid_is_job_worker(orphan.pid, job.id),
            timeout=10.0,
        ), "orphan cmdline never became visible"
        service._record({"type": "start", "job": job.id, "pid": orphan.pid})
        service.journal.close()

        restarted = Service(_config(root))
        restarted.recover()
        restarted.journal.close()
        assert orphan.wait(timeout=10) == -signal.SIGKILL
    finally:
        if orphan.poll() is None:
            orphan.kill()
            orphan.wait()


@pytest.mark.slow
def test_sigterm_drains_checkpoints_and_exits_zero(tmp_path):
    root = tmp_path / "svc"
    job_id = submit_to_inbox(root, _spec(trials=50_000, seed=9))
    env = _serve_env(tmp_path / "cache")
    proc = subprocess.Popen(_serve_cmd(root, 1), env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.STDOUT)
    try:
        assert _wait(lambda: any(
            j.state == JobState.RUNNING
            for j in load_queue_state(root).jobs.values()
        )), "job never started"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=120) == 0  # graceful drain exits 0
    finally:
        if proc.poll() is None:
            proc.kill()

    state = load_queue_state(root)
    job = state.jobs[job_id]
    # requeued with no retry charge: a drain is not the job's fault
    assert job.state == JobState.QUEUED
    assert job.attempts == 0
    assert state.draining is True
    status = service_status(root)
    assert status["status"] == "stopped"


# ---------------------------------------------------------------------------
# stale heartbeat handling (obs satellite)
# ---------------------------------------------------------------------------


def _dead_pid() -> int:
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_effective_status_demotes_dead_owner():
    doc = {"status": "running", "pid": os.getpid()}
    assert effective_status(doc) == "running"
    doc["pid"] = _dead_pid()
    assert effective_status(doc) == "stale"
    # terminal statuses are never demoted, whoever wrote them
    assert effective_status({"status": "done", "pid": -1}) == "done"
    assert effective_status({"status": "stopped", "pid": -1}) == "stopped"


def test_pid_alive_edge_cases():
    assert pid_alive(os.getpid()) is True
    assert pid_alive(_dead_pid()) is False
    assert pid_alive(None) is False
    assert pid_alive("not a pid") is False
    assert pid_alive(-5) is False


def test_top_until_done_exits_3_on_stale_heartbeat(tmp_path, capsys):
    from repro.obs.metrics import global_registry

    beat = tmp_path / "hb.json"
    beat.write_text(json.dumps({
        "status": "running", "pid": _dead_pid(),
        "workload": "g721dec", "scheme": "dup",
        "trials_done": 3, "trials_total": 10, "updated_unix": time.time(),
    }))
    registry = global_registry()
    prior = registry.enabled
    registry.enabled = True
    try:
        before = registry.counter("heartbeat.stale").value
        assert watch(str(beat), interval=0.0, until_done=True) == 3
        assert registry.counter("heartbeat.stale").value > before
    finally:
        registry.enabled = prior
    out = capsys.readouterr().out
    assert "stale" in out and "dead" in out


def test_stale_counter_counts_transitions_not_frames(tmp_path, capsys):
    from repro.obs.metrics import global_registry

    beat = tmp_path / "hb.json"
    beat.write_text(json.dumps({
        "status": "running", "pid": _dead_pid(),
        "workload": "g721dec", "scheme": "dup",
        "trials_done": 3, "trials_total": 10, "updated_unix": time.time(),
    }))
    registry = global_registry()
    prior = registry.enabled
    registry.enabled = True
    try:
        before = registry.counter("heartbeat.stale").value
        # three rendered frames of the same dead heartbeat = one detection
        assert watch(str(beat), interval=0.0, max_frames=3) == 0
        assert registry.counter("heartbeat.stale").value == before + 1
    finally:
        registry.enabled = prior
    capsys.readouterr()


def test_top_until_done_exits_0_on_terminal_status(tmp_path, capsys):
    beat = tmp_path / "hb.json"
    beat.write_text(json.dumps({
        "status": "done", "pid": _dead_pid(),
        "workload": "g721dec", "scheme": "dup",
        "trials_done": 10, "trials_total": 10, "updated_unix": time.time(),
    }))
    assert watch(str(beat), interval=0.0, until_done=True) == 0


def test_render_service_marks_dead_service_stale(tmp_path):
    frame = render_service({
        "kind": "service", "status": "running", "pid": _dead_pid(),
        "updated_unix": time.time(), "depth": 1, "max_depth": 8,
        "workers": 2, "workers_busy": 1,
        "counts": {"running": 1}, "counters": {"submitted": 1},
        "jobs": [{"id": "abc", "state": "running", "tenant": "t",
                  "spec": "g721dec/dup trials=6", "trials_done": 2,
                  "trials_total": 6, "attempts": 0}],
    })
    assert "stale" in frame and "dead" in frame


def test_status_cli_marks_dead_service_stale(tmp_path, capsys):
    """``repro.serve status`` must not report a SIGKILLed service as
    running; the stored document stays raw for pollers."""
    from repro.serve.__main__ import main as serve_main

    (tmp_path / "service.json").write_text(json.dumps({
        "kind": "service", "status": "running", "pid": _dead_pid(),
        "updated_unix": time.time(), "depth": 0, "max_depth": 8,
        "workers": 2, "workers_busy": 0,
    }))
    assert serve_main(["status", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "service: status=stale " in out
    assert service_status(tmp_path)["status"] == "running"
