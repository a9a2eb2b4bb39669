"""The campaign service: a crash-safe, multi-tenant queue over the engine.

One :class:`Service` process owns a **service root** directory::

    <root>/journal.jsonl    append-only queue transitions (source of truth)
    <root>/state.json       atomic state snapshot (journal replay accelerator)
    <root>/service.json     service heartbeat (atomic; ``repro.obs top``)
    <root>/inbox/           client submissions (atomic drop-in JSON files)
    <root>/control/drain    drain request marker (``repro.serve drain``)
    <root>/jobs/<id>/       one directory per admitted job (see ``worker.py``)

and runs a simple, relentlessly restartable loop: pull submissions from the
inbox, admit them (validate / shed / dedup / enqueue — every decision
journaled *before* it takes effect), dispatch queued jobs to a bounded
worker pool under round-robin tenant fairness, reap finished workers, and
keep the heartbeat and state snapshot fresh.  There is no in-memory state
that is not reconstructible from the journal: a SIGKILL at any instant
costs at most in-flight *work* (recovered from the PR 4 campaign
checkpoints), never bookkeeping.

Robustness decisions live here:

* **Admission control** — an invalid spec or a queue past ``max_depth``
  is *shed* (journaled, answerable, terminal) instead of admitted; the
  service never accepts work it cannot bound.
* **Retry with deterministic jitter** — a failed job is requeued with
  exponential backoff whose jitter is seeded from the job's content key
  (:func:`repro.faultinjection.resilience.jittered_backoff`), so a worker
  pool that loses many jobs at once does not produce a synchronized
  retry storm, while any single job's schedule stays reproducible.
* **Poison-job quarantine** — a job whose worker dies ``max_job_retries``
  times is parked as ``quarantined`` with its traceback; it can never
  wedge the queue.
* **Dedup** — submissions hash to a content key
  (:meth:`~repro.serve.spec.CampaignSpec.key`); a same-key submission
  rides the existing job ("follower") and resolves with it — one
  execution, one cache entry, N answers.
* **Graceful drain** — SIGTERM (or the ``control/drain`` marker) stops
  admission, SIGTERMs workers (which checkpoint and exit), journals the
  interrupts, snapshots, and exits 0.  Interrupted jobs are requeued with
  no retry charge: a drain is not the job's fault.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import settings
from ..durable import AppendLog, quarantine_file, write_json_atomic
from ..faultinjection.resilience import jittered_backoff
from ..obs.heartbeat import pid_alive, read_heartbeat
from ..obs.metrics import global_registry
from .journal import replay_queue, save_state_snapshot
from .queue import ACTIVE_STATES, FairScheduler, Job, JobState, QueueState
from .spec import DEFAULT_TENANT, CampaignSpec
from .worker import (
    EXIT_DONE,
    EXIT_INTERRUPTED,
    execute_job,
    job_paths,
    load_result,
)

__all__ = ["ServiceConfig", "Service", "ServicePaths", "service_paths"]

#: service heartbeat schema marker (distinguishes it from campaign docs)
SERVICE_HEARTBEAT_KIND = "service"

#: sentinel exit code for "exit 0 but no result.json" (never a real rc)
EXIT_FAILED_NO_RESULT = 1001

#: minimum seconds between service heartbeat writes
HEARTBEAT_INTERVAL = 0.5

#: seconds to wait for SIGTERMed workers before giving up the drain
DRAIN_GRACE = 30.0


@dataclass
class ServiceConfig:
    """Tunables of one service process.

    A field left ``None`` takes its ``REPRO_SERVE_*`` twin, else its
    default; :class:`Service` resolves the config
    (:func:`repro.settings.resolve`).
    """

    root: str
    #: concurrent jobs (worker subprocesses)
    workers: Optional[int] = field(
        default=None, metadata=settings.tags(settings.SERVE_WORKERS)
    )
    #: admission bound: queued + running jobs; submissions past it are shed
    max_depth: Optional[int] = field(
        default=None, metadata=settings.tags(settings.SERVE_DEPTH)
    )
    #: failed attempts before a job is quarantined as poison
    max_job_retries: Optional[int] = field(
        default=None, metadata=settings.tags(settings.SERVE_RETRIES)
    )
    #: base retry backoff (doubles per attempt, deterministic jitter)
    backoff_seconds: float = 0.5
    #: journal appends between state snapshots
    snapshot_every: int = 50
    #: idle loop sleep
    poll_interval: float = 0.05
    #: run jobs in-process instead of subprocesses (tests, load drives)
    inline: bool = False
    #: exit 0 once every admitted job is terminal and the inbox is empty
    until_idle: bool = False


@dataclass(frozen=True)
class ServicePaths:
    root: str
    journal: str
    state: str
    heartbeat: str
    inbox: str
    control: str
    drain_marker: str


def service_paths(root) -> ServicePaths:
    root = os.fspath(root)
    control = os.path.join(root, "control")
    return ServicePaths(
        root=root,
        journal=os.path.join(root, "journal.jsonl"),
        state=os.path.join(root, "state.json"),
        heartbeat=os.path.join(root, "service.json"),
        inbox=os.path.join(root, "inbox"),
        control=control,
        drain_marker=os.path.join(control, "drain"),
    )


def _preexec_pdeathsig():  # pragma: no cover - runs post-fork, pre-exec
    """Linux: have the kernel SIGKILL the worker if the service dies.

    A SIGKILLed service must not leave orphan workers writing into job
    directories the restarted service will re-dispatch.  Recovery also
    best-effort kills recorded worker pids, but the kernel tie is the one
    that cannot race.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
    except Exception:
        pass


def _pid_is_job_worker(pid, job_id: str) -> bool:
    """Does this pid still run ``repro.serve exec-job`` for this job?

    After service downtime the recorded pid may have been recycled by an
    unrelated process (or belong to another user — ``pid_alive`` reports
    those alive on ``PermissionError``), so recovery must never kill on an
    existence check alone.  The cmdline is read from ``/proc`` (Linux);
    anywhere it cannot be read the answer is False — skipping the kill is
    always safe, because the journaled ``interrupt`` requeues the job and
    the PR_SET_PDEATHSIG tie reaps true orphans on Linux anyway.
    """
    try:
        pid = int(pid)
    except (TypeError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            argv = fh.read().split(b"\0")
    except OSError:
        return False
    args = [arg.decode("utf-8", "replace") for arg in argv if arg]
    return "exec-job" in args and job_id in args


@dataclass
class _LiveWorker:
    job_id: str
    proc: Optional[subprocess.Popen]
    log: Optional[object] = None
    terminated: bool = False


class Service:
    """One long-lived queue/dispatch process over a service root."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = settings.resolve(config)
        self.paths = service_paths(config.root)
        os.makedirs(self.paths.inbox, exist_ok=True)
        os.makedirs(self.paths.control, exist_ok=True)
        self.state = QueueState()
        self.scheduler = FairScheduler()
        self.journal: Optional[AppendLog] = None
        self.live: Dict[str, _LiveWorker] = {}
        self.draining = False
        self._drain_requested = False
        self._appends_since_snapshot = 0
        self._last_heartbeat = 0.0
        self._started_unix = time.time()

    # -- durability ---------------------------------------------------------

    def _record(self, record: Dict) -> None:
        """Journal a transition, then (and only then) apply it."""
        record.setdefault("ts", round(time.time(), 3))
        assert self.journal is not None
        self.journal.append(record)
        self.state.apply(record)
        self._appends_since_snapshot += 1
        if self._appends_since_snapshot >= self.config.snapshot_every:
            self.snapshot()

    def snapshot(self) -> None:
        assert self.journal is not None
        save_state_snapshot(
            self.paths.state, self.state.to_doc(), self.journal.offset
        )
        self._appends_since_snapshot = 0

    # -- recovery -----------------------------------------------------------

    def recover(self) -> None:
        """Rebuild the queue from snapshot + journal tail; requeue casualties.

        Any job the previous incarnation left ``running`` is a crash
        casualty: if its recorded worker pid still runs the expected
        ``exec-job`` command (cmdline-verified — a recycled pid must never
        get an innocent process killed) it is SIGKILLed so no orphan keeps
        writing into the job directory, and the job is journaled
        ``interrupt`` — requeued with no retry charge, resuming from its
        campaign checkpoint.
        """
        self.state = replay_queue(self.paths.state, self.paths.journal)
        self.journal = AppendLog(self.paths.journal)
        # The previous incarnation may have died mid-drain; a fresh service
        # accepts work again.
        if self.state.draining:
            self._record({"type": "resume"})
        for job in self.state.in_state(JobState.RUNNING):
            if job.pid and pid_alive(job.pid) \
                    and _pid_is_job_worker(job.pid, job.id):
                try:
                    os.kill(int(job.pid), signal.SIGKILL)
                except OSError:
                    pass
            self._record({"type": "interrupt", "job": job.id,
                          "reason": "service restart"})
        self.snapshot()

    # -- admission ----------------------------------------------------------

    def submit(self, spec: CampaignSpec, tenant: str = DEFAULT_TENANT,
               job_id: Optional[str] = None) -> Job:
        """Admit one submission (validate → shed / dedup / enqueue).

        Always returns the resulting :class:`Job` — possibly terminal
        (``shed``) — so callers get an immediate, journaled answer.
        Re-submitting an id the journal already knows is a no-op returning
        the existing job (inbox replay after a crash must be idempotent).
        """
        job_id = job_id or os.urandom(6).hex()
        existing = self.state.jobs.get(job_id)
        if existing is not None:
            return existing
        tenant = tenant or DEFAULT_TENANT
        reason = spec.validate()
        key = spec.key() if reason is None else ""
        base = {
            "job": job_id, "tenant": tenant, "spec": spec.to_dict(),
            "key": key,
        }
        if reason is not None:
            self._record({"type": "shed", "reason": f"invalid spec: {reason}",
                          **base})
        elif self.draining or self.state.draining:
            self._record({"type": "shed", "reason": "service draining",
                          **base})
        else:
            primary = self.state.active_primary_for(key)
            if primary is not None:
                self._record({"type": "dedup", "primary": primary.id, **base})
            elif self.state.depth() >= self.config.max_depth:
                self._record({
                    "type": "shed",
                    "reason": (f"queue full: depth {self.state.depth()} >= "
                               f"bound {self.config.max_depth}"),
                    **base,
                })
            else:
                self._record({"type": "submit", **base})
        return self.state.jobs[job_id]

    def _poll_inbox(self) -> bool:
        """Admit every parseable inbox drop; quarantine the unparseable."""
        if self.draining:
            return False
        try:
            entries = []
            for name in os.listdir(self.paths.inbox):
                if not name.endswith(".json") or name.startswith("."):
                    continue
                path = os.path.join(self.paths.inbox, name)
                try:
                    mtime = os.stat(path).st_mtime_ns
                except OSError:
                    continue  # consumed by a concurrent actor
                entries.append((mtime, name))
            # FIFO admission: submission time, not the (random) id, orders
            # the queue.
            names = [name for _, name in sorted(entries)]
        except OSError:
            return False
        progressed = False
        for name in names:
            path = os.path.join(self.paths.inbox, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                if not isinstance(doc, dict):
                    raise ValueError("submission is not a JSON object")
                spec = CampaignSpec.from_dict(doc.get("spec") or {})
                job_id = str(doc.get("id") or "") or None
                tenant = str(doc.get("tenant") or DEFAULT_TENANT)
            except Exception:
                # Submissions are untrusted: *any* parse failure — bad JSON,
                # wrong shapes, exotic types — quarantines the drop rather
                # than crashing the loop (a poison file in the inbox would
                # otherwise wedge every restart).
                quarantine_file(path)
                global_registry().counter("queue.inbox_corrupt").inc()
                progressed = True
                continue
            self.submit(spec, tenant=tenant, job_id=job_id)
            try:
                os.unlink(path)
            except OSError:
                pass
            progressed = True
        return progressed

    # -- dispatch -----------------------------------------------------------

    def _write_job_spec(self, job: Job) -> None:
        paths = job_paths(self.paths.root, job.id)
        if not os.path.exists(paths.spec):
            write_json_atomic(paths.spec, job.spec)

    def _worker_env(self) -> Dict[str, str]:
        # Workers build a fully explicit campaign config (worker.py), so the
        # operator's environment needs no scrubbing.
        env = dict(os.environ)
        import repro

        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)
        ))
        existing = env.get("PYTHONPATH", "")
        parts = [package_root] + ([existing] if existing else [])
        env["PYTHONPATH"] = os.pathsep.join(parts)
        return env

    def _dispatch(self) -> bool:
        progressed = False
        while (len(self.live) < self.config.workers and not self.draining
               and not self._drain_requested):
            job = self.scheduler.pick(self.state)
            if job is None:
                break
            self._write_job_spec(job)
            self.scheduler.forget(job.id)
            if self.config.inline:
                self._record({"type": "start", "job": job.id,
                              "pid": os.getpid()})
                self.write_heartbeat(force=True)
                code = execute_job(
                    self.paths.root, job.id,
                    spec=CampaignSpec.from_dict(job.spec),
                )
                self._settle(job.id, code, drained=self._drain_requested)
            else:
                worker = self._spawn(job)
                self.live[job.id] = worker
                self._record({"type": "start", "job": job.id,
                              "pid": worker.proc.pid})
            progressed = True
        return progressed

    def _spawn(self, job: Job) -> _LiveWorker:
        paths = job_paths(self.paths.root, job.id)
        os.makedirs(paths.directory, exist_ok=True)
        log = open(os.path.join(paths.directory, "worker.log"), "ab")
        kwargs = {}
        if sys.platform.startswith("linux"):
            kwargs["preexec_fn"] = _preexec_pdeathsig
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "exec-job",
             "--root", self.paths.root, "--job", job.id],
            stdout=log, stderr=subprocess.STDOUT,
            env=self._worker_env(), **kwargs,
        )
        return _LiveWorker(job_id=job.id, proc=proc, log=log)

    # -- reaping ------------------------------------------------------------

    def _reap(self) -> bool:
        progressed = False
        for job_id in list(self.live):
            worker = self.live[job_id]
            code = worker.proc.poll()
            if code is None:
                continue
            if worker.log is not None:
                try:
                    worker.log.close()
                except OSError:
                    pass
            del self.live[job_id]
            self._settle(job_id, code, drained=worker.terminated)
            progressed = True
        return progressed

    def _settle(self, job_id: str, code: int, drained: bool) -> None:
        """Journal the outcome of one worker exit."""
        job = self.state.jobs.get(job_id)
        if job is None:  # journal truncation artifact; nothing to settle
            return
        paths = job_paths(self.paths.root, job_id)
        if code == EXIT_DONE:
            if load_result(paths.result) is not None:
                self._record({"type": "done", "job": job_id})
                return
            code = EXIT_FAILED_NO_RESULT
        if code == EXIT_INTERRUPTED or (drained and code < 0):
            self._record({"type": "interrupt", "job": job_id,
                          "reason": "drain" if drained else "interrupted"})
            return
        attempt = job.attempts + 1
        error = self._attempt_error(paths, code)
        if attempt >= self.config.max_job_retries:
            self._record({"type": "quarantine", "job": job_id,
                          "attempt": attempt, "error": error})
            return
        self._record({"type": "fail", "job": job_id, "attempt": attempt,
                      "error": error})
        delay = jittered_backoff(
            self.config.backoff_seconds, attempt, key=job.key or job_id
        )
        self.scheduler.delay(job_id, time.monotonic() + delay)

    @staticmethod
    def _attempt_error(paths, code: int) -> str:
        try:
            with open(paths.error, encoding="utf-8") as fh:
                text = fh.read().strip()
            if text:
                return text[-4000:]
        except OSError:
            pass
        if code < 0:
            return f"worker killed by signal {-code}"
        if code == EXIT_FAILED_NO_RESULT:
            return "worker exited 0 without writing a result"
        return f"worker exited with code {code}"

    # -- drain --------------------------------------------------------------

    def request_drain(self) -> None:
        self._drain_requested = True

    def _begin_drain(self) -> None:
        if self.draining:
            return
        self.draining = True
        self._record({"type": "drain"})
        for worker in self.live.values():
            worker.terminated = True
            try:
                worker.proc.terminate()
            except OSError:
                pass
        try:
            os.unlink(self.paths.drain_marker)
        except OSError:
            pass

    def _finish_drain(self) -> int:
        deadline = time.monotonic() + DRAIN_GRACE
        while self.live and time.monotonic() < deadline:
            self._reap()
            time.sleep(self.config.poll_interval)
        # Workers that ignored SIGTERM get the axe; their checkpoints cover
        # whatever they had flushed.
        for worker in list(self.live.values()):
            try:
                worker.proc.kill()
                worker.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self._reap()
        for job_id in list(self.live):
            del self.live[job_id]
            self._settle(job_id, -signal.SIGKILL, drained=True)
        self.snapshot()
        self.write_heartbeat(status="stopped", force=True)
        return 0

    # -- heartbeat ----------------------------------------------------------

    def _job_row(self, job: Job) -> Dict:
        row = {
            "id": job.id, "tenant": job.tenant, "state": job.state,
            "spec": CampaignSpec.from_dict(job.spec).describe(),
            "attempts": job.attempts,
        }
        if job.state == JobState.RUNNING:
            beat = read_heartbeat(job_paths(self.paths.root, job.id).heartbeat)
            if beat is not None:
                row["trials_done"] = beat.get("trials_done", 0)
                row["trials_total"] = beat.get("trials_total", 0)
        return row

    def heartbeat_document(self, status: str = "running") -> Dict:
        active = self.state.in_state(*ACTIVE_STATES)
        rows = [self._job_row(job) for job in active[:50]]
        return {
            "v": 1,
            "kind": SERVICE_HEARTBEAT_KIND,
            "status": "draining" if self.draining and status == "running"
                      else status,
            "pid": os.getpid(),
            "updated_unix": round(time.time(), 3),
            "started_unix": round(self._started_unix, 3),
            "depth": self.state.depth(),
            "max_depth": self.config.max_depth,
            "workers": self.config.workers,
            "workers_busy": len(self.live),
            "counts": self.state.counts(),
            "counters": dict(self.state.counters),
            "jobs": rows,
        }

    def write_heartbeat(self, status: str = "running",
                        force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_heartbeat < HEARTBEAT_INTERVAL:
            return
        self._last_heartbeat = now
        try:
            write_json_atomic(self.paths.heartbeat,
                              self.heartbeat_document(status))
        except OSError:  # pragma: no cover - telemetry is best effort
            pass

    # -- main loop ----------------------------------------------------------

    def _idle(self) -> bool:
        if self.live or self.state.in_state(*ACTIVE_STATES):
            return False
        try:
            pending = any(
                name.endswith(".json") and not name.startswith(".")
                for name in os.listdir(self.paths.inbox)
            )
        except OSError:
            pending = False
        return not pending

    def run(self) -> int:
        """The service loop; returns the process exit code."""
        self.recover()

        def _on_signal(signum, frame):
            self._drain_requested = True

        installed: List = []
        for signame in ("SIGTERM", "SIGINT"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                installed.append((signum, signal.signal(signum, _on_signal)))
            except ValueError:  # non-main thread (tests)
                pass
        try:
            self.write_heartbeat(force=True)
            while True:
                if self._drain_requested or \
                        os.path.exists(self.paths.drain_marker):
                    self._begin_drain()
                if self.draining:
                    return self._finish_drain()
                progressed = self._poll_inbox()
                progressed |= self._reap()
                progressed |= self._dispatch()
                self.write_heartbeat(force=progressed)
                if self.config.until_idle and self._idle():
                    self.snapshot()
                    self.write_heartbeat(status="stopped", force=True)
                    return 0
                if not progressed:
                    time.sleep(self.config.poll_interval)
        finally:
            for signum, previous in installed:
                try:
                    signal.signal(signum, previous)
                except ValueError:
                    pass
            if self.journal is not None:
                self.journal.close()
                self.journal = None
