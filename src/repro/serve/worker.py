"""Job execution: one campaign per worker process, idempotent and resumable.

A worker owns one job directory (``<root>/jobs/<job-id>/``)::

    job.json          the admitted spec (written by the service at admission)
    campaign.jsonl    the obs trial event log (byte-identical to a direct run)
    checkpoint.json   the PR 4 campaign checkpoint while the run is in flight
    heartbeat.json    live per-campaign status (folded into the service view)
    result.json       the full CampaignResult (atomic write = completion mark)
    error.txt         traceback of the last failed attempt, if any

**Idempotence is the crash-safety contract.**  ``result.json`` is written
atomically (:func:`repro.durable.write_json_atomic`) *after* the campaign
finishes, so its
existence is the single completion marker: a re-dispatched job that already
has a loadable result exits immediately without touching anything — this is
what makes "service SIGKILLed after the worker finished but before the
``done`` record hit the journal" harmless.

**Byte-identity across kills.**  If a checkpoint exists, ``run_campaign``
resumes from it and rewrites the obs log from the recorded offset — the PR 4
guarantee.  If no checkpoint exists (killed before the first flush), the
worker deletes any partial obs artifacts and starts clean.  Either way the
final ``campaign.jsonl`` and ``result.json`` are byte-identical to an
uninterrupted direct ``repro.faultinjection`` run of the same spec.

**Graceful drain.**  SIGTERM raises through the campaign, whose
``BaseException`` path force-flushes the checkpoint; the worker then exits
with :data:`EXIT_INTERRUPTED` so the service requeues the job without
charging its retry budget.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import traceback
from dataclasses import dataclass
from typing import Optional

from .. import settings
from ..durable import write_json_atomic
from ..obs.events import resilience_log_path
from .spec import CampaignSpec

__all__ = [
    "EXIT_DONE",
    "EXIT_FAILED",
    "EXIT_INTERRUPTED",
    "JobPaths",
    "execute_job",
    "job_paths",
]

EXIT_DONE = 0
#: EX_TEMPFAIL: checkpointed and requeueable, not a failure
EXIT_INTERRUPTED = 75
EXIT_FAILED = 1


@dataclass(frozen=True)
class JobPaths:
    """Filesystem layout of one job directory."""

    directory: str
    spec: str
    obs_log: str
    checkpoint: str
    heartbeat: str
    result: str
    error: str


def job_paths(root, job_id: str) -> JobPaths:
    directory = os.path.join(os.fspath(root), "jobs", job_id)
    return JobPaths(
        directory=directory,
        spec=os.path.join(directory, "job.json"),
        obs_log=os.path.join(directory, "campaign.jsonl"),
        checkpoint=os.path.join(directory, "checkpoint.json"),
        heartbeat=os.path.join(directory, "heartbeat.json"),
        result=os.path.join(directory, "result.json"),
        error=os.path.join(directory, "error.txt"),
    )


def load_result(path: str) -> Optional[dict]:
    """The job's result document, or None when absent/unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        return document if isinstance(document, dict) else None
    except (OSError, ValueError):
        return None


class _Drained(BaseException):
    """SIGTERM during execution: checkpoint and hand the job back."""


def _campaign_config(spec: CampaignSpec, paths: JobPaths):
    """The exact config a direct run of this spec resolves to.

    Every field that could change campaign bytes or route an artifact is
    explicit — the fault model comes from the spec, never
    ``REPRO_FAULT_MODEL``; the obs log, checkpoint and heartbeat live in
    the job directory; tracing is off — so a spec computes the same
    campaign whatever the host's environment says.  Only the execution-only
    knobs (resilience policy, snapshot cadence, triage, batching) are left
    to the environment.
    """
    from ..faultinjection.campaign import CampaignConfig

    return settings.resolve(CampaignConfig(
        trials=spec.trials,
        seed=spec.seed,
        jobs=spec.jobs,
        swap_train_test=spec.swap_train_test,
        fault_model=spec.fault_model or "single_bit",
        obs_log=paths.obs_log,
        checkpoint=paths.checkpoint,
        heartbeat=paths.heartbeat,
        trace="",
    ))


def _fresh_start_cleanup(paths: JobPaths) -> None:
    """No checkpoint → any partial obs artifacts belong to a run that left
    nothing to resume from; drop them so the rewrite starts at byte 0."""
    for stale in (paths.obs_log, resilience_log_path(paths.obs_log),
                  paths.heartbeat):
        try:
            os.unlink(stale)
        except OSError:
            pass


def execute_job(root, job_id: str,
                spec: Optional[CampaignSpec] = None) -> int:
    """Run one admitted job to completion; returns the worker exit code.

    ``spec`` defaults to the job directory's ``job.json`` (the normal
    subprocess path); passing it explicitly serves the in-process launcher
    and tests.
    """
    paths = job_paths(root, job_id)
    if load_result(paths.result) is not None:
        return EXIT_DONE  # finished by a previous attempt; nothing to redo
    if spec is None:
        try:
            with open(paths.spec, encoding="utf-8") as fh:
                spec = CampaignSpec.from_dict(json.load(fh))
        except (OSError, ValueError) as err:
            _write_error(paths, f"unreadable job.json: {err}")
            return EXIT_FAILED

    def _on_sigterm(signum, frame):
        raise _Drained()

    previous = None
    if hasattr(signal, "SIGTERM"):
        try:
            previous = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:  # non-main thread (in-process launcher)
            previous = None

    try:
        return _run_spec(spec, paths)
    except _Drained:
        # run_campaign's BaseException path already force-flushed the
        # checkpoint; the obs log will be truncated to the checkpointed
        # offset on resume.
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    except BaseException as err:  # noqa: BLE001 - poison evidence capture
        _write_error(
            paths,
            "".join(traceback.format_exception(type(err), err,
                                               err.__traceback__)),
        )
        return EXIT_FAILED
    finally:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except ValueError:
                pass


def _run_spec(spec: CampaignSpec, paths: JobPaths) -> int:
    from ..faultinjection.campaign import prepare, run_campaign
    from ..faultinjection.diskcache import CampaignCache, campaign_key
    from ..workloads.registry import get_workload

    config = _campaign_config(spec, paths)
    if not os.path.exists(paths.checkpoint):
        _fresh_start_cleanup(paths)
    os.makedirs(paths.directory, exist_ok=True)

    prepared = prepare(get_workload(spec.workload), spec.scheme, config)
    result = run_campaign(
        prepared.workload, spec.scheme, config, prepared=prepared
    )
    write_json_atomic(paths.result, result.to_dict())
    # Share the finished campaign through the regular disk cache (honours
    # REPRO_CACHE / REPRO_CACHE_DIR): dedup means one execution — and one
    # cache entry — no matter how many tenants asked for this spec.  Its
    # quarantine reports stay off the operator's obs log.
    cache = CampaignCache()
    if cache.enabled:
        cache.put(
            campaign_key(prepared.module, spec.workload, spec.scheme, config),
            result,
        )
    try:
        os.unlink(paths.error)  # a success supersedes old attempt evidence
    except OSError:
        pass
    return EXIT_DONE


def _write_error(paths: JobPaths, text: str) -> None:
    try:
        os.makedirs(paths.directory, exist_ok=True)
        with open(paths.error, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError:  # pragma: no cover - evidence is best effort
        pass


def main(argv=None) -> int:
    """``python -m repro.serve exec-job --root R --job ID`` (internal)."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.serve exec-job")
    parser.add_argument("--root", required=True)
    parser.add_argument("--job", required=True)
    args = parser.parse_args(argv)
    return execute_job(args.root, args.job)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
