"""``repro.serve`` — the crash-safe, multi-tenant campaign service.

Composes the existing primitives — deterministic pre-drawn campaigns,
sha256-keyed disk cache and checkpoints, resilience policies, obs event
logs and heartbeats — behind a durable submit/status/results queue.  See
``docs/SERVICE.md`` for the journal format and the admission, dedup,
fairness, and drain guarantees; ``python -m repro.serve --help`` for the
CLI.
"""

from .client import (
    load_queue_state,
    request_drain,
    result_for,
    service_status,
    submit_to_inbox,
    wait_for_result,
    wait_for_terminal,
)
from .journal import read_journal
from .queue import FairScheduler, Job, JobState, QueueState
from .service import Service, ServiceConfig, service_paths
from .spec import DEFAULT_TENANT, CampaignSpec
from .worker import execute_job, job_paths, load_result

__all__ = [
    "CampaignSpec",
    "DEFAULT_TENANT",
    "FairScheduler",
    "Job",
    "JobState",
    "QueueState",
    "Service",
    "ServiceConfig",
    "execute_job",
    "job_paths",
    "load_queue_state",
    "load_result",
    "read_journal",
    "request_drain",
    "result_for",
    "service_paths",
    "service_status",
    "submit_to_inbox",
    "wait_for_result",
    "wait_for_terminal",
]
