"""Client side of the service: submit, observe, and fetch — all file-based.

The service root *is* the API surface.  Clients never need a socket or a
live service process:

* **submit** drops an atomically-written JSON file into ``<root>/inbox/``;
  the service admits it on its next poll.  The submission id doubles as
  the job id, so the client can track its job before admission happens.
* **status** rebuilds the queue read-only from the state snapshot plus the
  journal tail — the exact replay the service itself performs on restart,
  so client and service can never disagree about a job's state.
* **results** follows a deduped follower to its primary and reads the
  primary's atomically-written ``result.json``.
* **drain** touches ``<root>/control/drain``; the service notices, stops
  admitting, checkpoints everything, and exits 0.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from ..durable import write_json_atomic
from ..obs.heartbeat import read_heartbeat
from .journal import replay_queue
from .queue import Job, JobState, QueueState
from .spec import DEFAULT_TENANT, CampaignSpec
from .service import service_paths
from .worker import job_paths, load_result

__all__ = [
    "load_queue_state",
    "request_drain",
    "result_for",
    "service_status",
    "submit_to_inbox",
    "wait_for_result",
    "wait_for_terminal",
]


def submit_to_inbox(root, spec: CampaignSpec,
                    tenant: str = DEFAULT_TENANT,
                    job_id: Optional[str] = None) -> str:
    """Drop one submission into the service inbox; returns the job id.

    The write is atomic (temp + rename inside the inbox directory), so the
    service can never observe a torn submission.
    """
    paths = service_paths(root)
    os.makedirs(paths.inbox, exist_ok=True)
    job_id = job_id or os.urandom(6).hex()
    doc = {"id": job_id, "tenant": tenant or DEFAULT_TENANT,
           "spec": spec.to_dict()}
    final = os.path.join(paths.inbox, f"{job_id}.json")
    write_json_atomic(final, doc)
    return job_id


def load_queue_state(root) -> QueueState:
    """Read-only queue reconstruction: snapshot + journal tail replay."""
    paths = service_paths(root)
    return replay_queue(paths.state, paths.journal)


def service_status(root) -> Optional[Dict]:
    """The service heartbeat document as stored, or None when never
    started.  Its ``status`` is not demoted when the service died; render it
    through :func:`~repro.obs.heartbeat.effective_status`."""
    return read_heartbeat(service_paths(root).heartbeat)


def _resolve_primary(state: QueueState, job: Job) -> Job:
    # ``primary`` outlives the DEDUPED state: a follower flipped to done by
    # its primary's completion still reads the primary's result file.
    if job.primary and job.primary in state.jobs:
        return state.jobs[job.primary]
    return job


def result_for(root, job_id: str,
               state: Optional[QueueState] = None) -> Optional[Dict]:
    """The job's campaign result document (following dedup), or None."""
    state = state if state is not None else load_queue_state(root)
    job = state.jobs.get(job_id)
    if job is None:
        return None
    primary = _resolve_primary(state, job)
    return load_result(job_paths(root, primary.id).result)


def wait_for_terminal(root, job_id: str, timeout: float = 60.0,
                      poll: float = 0.1) -> Optional[Job]:
    """Poll until the job reaches a terminal state; None on timeout.

    Terminal includes a deduped follower whose primary is terminal — the
    reducer flips followers when their primary resolves, so checking the
    follower's own state suffices.
    """
    deadline = time.monotonic() + timeout
    while True:
        state = load_queue_state(root)
        job = state.jobs.get(job_id)
        if job is not None and job.state in JobState.TERMINAL:
            return job
        if time.monotonic() >= deadline:
            return None
        time.sleep(poll)


def wait_for_result(root, job_id: str, timeout: float = 60.0,
                    poll: float = 0.1) -> Optional[Dict]:
    """Wait for a terminal state, then return the result document.

    None when the job timed out, was shed, or was quarantined — callers
    distinguish via :func:`load_queue_state`.
    """
    job = wait_for_terminal(root, job_id, timeout=timeout, poll=poll)
    if job is None or job.state != JobState.DONE:
        return None
    return result_for(root, job_id)


def request_drain(root) -> str:
    """Ask a running service to drain; returns the marker path."""
    paths = service_paths(root)
    os.makedirs(paths.control, exist_ok=True)
    marker = paths.drain_marker
    with open(marker, "w", encoding="utf-8") as fh:
        fh.write(str(time.time()))
    return marker
