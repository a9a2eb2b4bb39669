"""Queue state machine: jobs, the journal reducer, and fair scheduling.

The state machine is deliberately a *pure reducer*: the live service and
crash recovery build the exact same :class:`QueueState` by feeding journal
records through :meth:`QueueState.apply`, so there is no way for the
in-memory queue and the durable journal to disagree about a transition.

Job lifecycle::

    submit ──────────────► queued ──start──► running ──done──► done
       │                     ▲                  │
       │ (over depth bound,  │   fail (attempt < retry budget,
       │  invalid spec)      └──────────────────┤    backoff + jitter)
       ├──► shed             interrupt          │
       │   (terminal)        (service died /    └─quarantine──► quarantined
       │                      drain: requeued,       (terminal, traceback
       └──► deduped ──(primary done)──► done          preserved)
            (follower of an identical spec)

*Interrupt* transitions never consume retry budget: a drained or SIGKILLed
service is not the job's fault, and the campaign-level checkpoint makes the
re-run byte-identical.  *Fail* transitions do; a job that kills its workers
``max_job_retries`` times is parked as ``quarantined`` with its traceback —
it can never wedge the queue, and the evidence is preserved for diagnosis.

Fairness is round-robin **across tenants**, not across jobs: the scheduler
cycles tenants that have an eligible queued job and takes the oldest job of
each, so one tenant submitting 10k campaigns cannot starve another tenant's
single job behind them.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["ACTIVE_STATES", "Job", "JobState", "QueueState", "FairScheduler"]


class JobState:
    """String states (JSON-friendly; see the module docstring diagram)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    SHED = "shed"
    DEDUPED = "deduped"
    QUARANTINED = "quarantined"

    ALL = (QUEUED, RUNNING, DONE, SHED, DEDUPED, QUARANTINED)
    TERMINAL = (DONE, SHED, QUARANTINED)


#: states that count against the admission depth bound
ACTIVE_STATES = (JobState.QUEUED, JobState.RUNNING)


@dataclass
class Job:
    """One submission's durable record."""

    id: str
    tenant: str
    spec: Dict
    key: str
    state: str = JobState.QUEUED
    #: execution attempts that *failed* (interrupts don't count)
    attempts: int = 0
    #: job id this deduped follower rides on (followers never execute)
    primary: Optional[str] = None
    #: why the job was shed, or the traceback that quarantined it
    error: Optional[str] = None
    #: admission sequence number (FIFO order within a tenant)
    seq: int = 0
    #: pid of the worker currently executing the job (running state only)
    pid: Optional[int] = None

    def to_doc(self) -> Dict:
        doc = {
            "id": self.id, "tenant": self.tenant, "spec": self.spec,
            "key": self.key, "state": self.state, "attempts": self.attempts,
            "seq": self.seq,
        }
        if self.primary is not None:
            doc["primary"] = self.primary
        if self.error is not None:
            doc["error"] = self.error
        if self.pid is not None:
            doc["pid"] = self.pid
        return doc

    @classmethod
    def from_doc(cls, doc: Dict) -> "Job":
        return cls(
            id=doc["id"], tenant=doc.get("tenant", ""),
            spec=doc.get("spec") or {}, key=doc.get("key", ""),
            state=doc.get("state", JobState.QUEUED),
            attempts=int(doc.get("attempts", 0)),
            primary=doc.get("primary"), error=doc.get("error"),
            seq=int(doc.get("seq", 0)), pid=doc.get("pid"),
        )


class QueueState:
    """The reducer: every queue mutation flows through :meth:`apply`."""

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}
        self.seq = 0
        #: monotone tallies (survive snapshots; feed the service heartbeat)
        self.counters: Dict[str, int] = {}
        self.draining = False

    # -- reducer ------------------------------------------------------------

    def apply(self, record: Dict) -> None:
        """Fold one journal record into the state.

        Unknown record types and references to unknown jobs are ignored
        (never raise): recovery must always make it through a journal that
        a newer — or corrupted-then-truncated — service version wrote.
        """
        kind = record.get("type")
        handler = getattr(self, f"_apply_{kind}", None)
        if handler is not None:
            handler(record)

    def _count(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def _apply_submit(self, record: Dict) -> None:
        job = Job(
            id=record["job"], tenant=record.get("tenant", ""),
            spec=record.get("spec") or {}, key=record.get("key", ""),
            state=JobState.QUEUED, seq=self.seq,
        )
        self.seq += 1
        self.jobs[job.id] = job
        self._count("submitted")
        self._count("admitted")

    def _apply_shed(self, record: Dict) -> None:
        job = Job(
            id=record["job"], tenant=record.get("tenant", ""),
            spec=record.get("spec") or {}, key=record.get("key", ""),
            state=JobState.SHED, error=record.get("reason"), seq=self.seq,
        )
        self.seq += 1
        self.jobs[job.id] = job
        self._count("submitted")
        self._count("shed")

    def _apply_dedup(self, record: Dict) -> None:
        primary = self.jobs.get(record.get("primary", ""))
        job = Job(
            id=record["job"], tenant=record.get("tenant", ""),
            spec=record.get("spec") or {},
            key=record.get("key", ""),
            state=JobState.DEDUPED, primary=record.get("primary"),
            seq=self.seq,
        )
        self.seq += 1
        # A follower of an already-finished primary is done on arrival; a
        # follower of a quarantined primary shares its fate (never wedges).
        if primary is not None and primary.state == JobState.DONE:
            job.state = JobState.DONE
        elif primary is not None and primary.state == JobState.QUARANTINED:
            job.state = JobState.QUARANTINED
            job.error = f"primary {primary.id} quarantined"
        self.jobs[job.id] = job
        self._count("submitted")
        self._count("deduped")

    def _apply_start(self, record: Dict) -> None:
        job = self.jobs.get(record.get("job", ""))
        if job is not None:
            job.state = JobState.RUNNING
            job.pid = record.get("pid")
            self._count("started")

    def _apply_done(self, record: Dict) -> None:
        job = self.jobs.get(record.get("job", ""))
        if job is None:
            return
        job.state = JobState.DONE
        job.pid = None
        self._count("done")
        for follower in self.followers(job.id):
            if follower.state == JobState.DEDUPED:
                follower.state = JobState.DONE

    def _apply_fail(self, record: Dict) -> None:
        job = self.jobs.get(record.get("job", ""))
        if job is not None:
            job.state = JobState.QUEUED
            job.attempts = int(record.get("attempt", job.attempts + 1))
            job.error = record.get("error")
            job.pid = None
            self._count("failed")

    def _apply_interrupt(self, record: Dict) -> None:
        job = self.jobs.get(record.get("job", ""))
        if job is not None and job.state == JobState.RUNNING:
            job.state = JobState.QUEUED  # attempts deliberately unchanged
            job.pid = None
            self._count("interrupted")

    def _apply_quarantine(self, record: Dict) -> None:
        job = self.jobs.get(record.get("job", ""))
        if job is None:
            return
        job.state = JobState.QUARANTINED
        job.attempts = int(record.get("attempt", job.attempts))
        job.error = record.get("error")
        job.pid = None
        self._count("quarantined")
        for follower in self.followers(job.id):
            if follower.state == JobState.DEDUPED:
                follower.state = JobState.QUARANTINED
                follower.error = f"primary {job.id} quarantined"

    def _apply_drain(self, record: Dict) -> None:
        self.draining = True

    def _apply_resume(self, record: Dict) -> None:
        self.draining = False

    # -- queries ------------------------------------------------------------

    def followers(self, primary_id: str) -> List[Job]:
        return [j for j in self.jobs.values() if j.primary == primary_id]

    def in_state(self, *states: str) -> List[Job]:
        wanted = set(states)
        return sorted(
            (j for j in self.jobs.values() if j.state in wanted),
            key=lambda j: j.seq,
        )

    def depth(self) -> int:
        """Jobs counting against the admission bound (queued + running)."""
        return sum(1 for j in self.jobs.values() if j.state in ACTIVE_STATES)

    def active_primary_for(self, key: str) -> Optional[Job]:
        """The job a same-key submission should dedup onto, if any.

        Shed and quarantined jobs are not dedup targets (a fresh submission
        of a previously-quarantined spec deserves a fresh chance — maybe the
        environment was fixed); followers chain one hop to their primary so
        dedup never builds linked lists.
        """
        best: Optional[Job] = None
        for job in self.jobs.values():
            if job.key != key:
                continue
            if job.state in (JobState.SHED, JobState.QUARANTINED):
                continue
            candidate = job
            if job.state == JobState.DEDUPED and job.primary in self.jobs:
                candidate = self.jobs[job.primary]
            if candidate.state in (JobState.SHED, JobState.QUARANTINED):
                continue
            if best is None or candidate.seq < best.seq:
                best = candidate
        return best

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in JobState.ALL}
        for job in self.jobs.values():
            out[job.state] += 1
        return out

    # -- snapshot round-trip --------------------------------------------------

    def to_doc(self) -> Dict:
        return {
            "seq": self.seq,
            "draining": self.draining,
            "counters": dict(self.counters),
            "jobs": [self.jobs[k].to_doc() for k in sorted(self.jobs)],
        }

    @classmethod
    def from_doc(cls, doc: Dict) -> "QueueState":
        state = cls()
        state.seq = int(doc.get("seq", 0))
        state.draining = bool(doc.get("draining", False))
        state.counters = dict(doc.get("counters") or {})
        for job_doc in doc.get("jobs", ()):
            job = Job.from_doc(job_doc)
            state.jobs[job.id] = job
        return state


class FairScheduler:
    """Round-robin across tenants over the queued, backoff-eligible jobs."""

    def __init__(self) -> None:
        self._last_tenant: Optional[str] = None
        #: job id → earliest wall-clock time it may start (retry backoff);
        #: runtime-only on purpose: after a crash, requeued work is eligible
        #: immediately — the backoff exists to break retry storms *within*
        #: a service lifetime, not to delay recovery.
        self.not_before: Dict[str, float] = {}

    def pick(self, state: QueueState,
             now: Optional[float] = None) -> Optional[Job]:
        now = time.monotonic() if now is None else now
        eligible = [
            job for job in state.in_state(JobState.QUEUED)
            if self.not_before.get(job.id, 0.0) <= now
        ]
        if not eligible:
            return None
        by_tenant: Dict[str, List[Job]] = {}
        for job in eligible:  # already seq-sorted: index 0 is the oldest
            by_tenant.setdefault(job.tenant, []).append(job)
        tenants = sorted(by_tenant)
        if self._last_tenant is not None:
            # Rotate past the last-served tenant's sorted position even when
            # it has nothing queued right now, so ties never default to the
            # alphabetically-first tenant.
            at = bisect.bisect_right(tenants, self._last_tenant)
            tenants = tenants[at:] + tenants[:at]
        chosen = tenants[0]
        self._last_tenant = chosen
        return by_tenant[chosen][0]

    def delay(self, job_id: str, until: float) -> None:
        self.not_before[job_id] = until

    def forget(self, job_id: str) -> None:
        self.not_before.pop(job_id, None)
