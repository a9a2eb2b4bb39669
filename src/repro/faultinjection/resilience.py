"""Campaign resilience layer: checkpoint/resume, recovery policy, quarantine.

The paper's evaluation rests on large statistical fault-injection campaigns
(thousands of trials per benchmark x scheme).  At that scale the injection
harness is itself a long-running system that must survive partial failures:
a crashed worker or a corrupt on-disk artifact must not abort the whole
campaign and discard every completed trial.  This module provides the
pieces; :mod:`.campaign` and :mod:`.parallel` integrate them.

A runaway trial is not this module's concern: the simulated-instruction
budget (``timeout_factor`` x the golden run) ends it as a Failure, and the
interpreter's containment boundary classifies a trial whose corrupted state
crashes harness code.  Both are pure functions of the trial's plan, so no
trial result or log record depends on how fast the host is.

* :class:`ResiliencePolicy` — the recovery knobs (on/off switch, retry
  budget and backoff, checkpoint cadence), resolved once in the campaign
  parent from ``REPRO_RESILIENCE`` and friends (:mod:`repro.settings`) so
  workers inherit the exact same decision.

* **Checkpointing** (:class:`Checkpointer`, :func:`save_checkpoint`,
  :func:`load_checkpoint`) — periodically persists completed plan-indexed
  trial records to an atomically-replaced JSON file carrying a sha256 of its
  payload.  An interrupted campaign (``KeyboardInterrupt``, OOM-killed
  worker, machine reboot) resumes from the last checkpoint; because trial
  plans are pre-drawn and trial records round-trip bit-exactly, the resumed
  campaign produces byte-identical results and event logs.  A checkpoint
  whose checksum does not verify is quarantined and ignored, never trusted.

* **Quarantine** (:func:`repro.durable.quarantine_file`) — corrupt
  artifacts (cache entries, checkpoints) are moved into a ``quarantine/``
  subdirectory next to where they lived, preserving the evidence for
  diagnosis instead of silently deleting or — worse — silently *using* it.

* :class:`ResilienceLogger` — every recovery action (checkpoint write/load,
  chunk retry, serial fallback, quarantine) emits a structured event to a
  sidecar JSONL (``<obs_log>.resilience`` — kept out of the main trial log
  so the byte-identity guarantee of :mod:`repro.obs.events` is untouched)
  and a ``resilience.*`` counter in the metrics registry, so resilience
  behaviour is auditable via ``python -m repro.obs report``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from .. import durable, settings
from ..obs import events as obs_events
from ..obs import trace as trace_mod
from ..obs.metrics import global_registry
from .outcomes import TrialResult, trial_from_record, trial_to_record

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "Checkpointer",
    "ResiliencePolicy",
    "ResilienceLogger",
    "jittered_backoff",
    "load_checkpoint",
    "save_checkpoint",
]

#: bump on any change to the checkpoint file layout
CHECKPOINT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResiliencePolicy:
    """Recovery behaviour of one campaign (resolved once, in the parent).

    A field left ``None`` takes its ``REPRO_*`` twin, else its default
    (:func:`repro.settings.resolve`).
    """

    #: master switch; when False every failure propagates as before
    enabled: Optional[bool] = field(
        default=None, metadata=settings.tags(settings.RESILIENCE)
    )
    #: pool re-creation attempts before degrading to serial execution
    #: (0 degrades at once)
    max_retries: Optional[int] = field(
        default=None, metadata=settings.tags(settings.MAX_RETRIES)
    )
    #: base delay before the first retry; doubles per attempt
    backoff_seconds: float = 0.5
    #: completed trials between checkpoint writes (when checkpointing is on)
    checkpoint_every: Optional[int] = field(
        default=None, metadata=settings.tags(settings.CHECKPOINT_EVERY)
    )


# ---------------------------------------------------------------------------
# resilience event log (sidecar) + metrics
# ---------------------------------------------------------------------------


class ResilienceLogger:
    """Audit trail for recovery actions: sidecar JSONL + registry counters.

    The sidecar (``<obs_log>.resilience``) is separate from the main trial
    log on purpose: recovery actions only happen on failures, so folding
    them into the trial log would break its byte-identity guarantee.
    ``echo`` is an optional callable given a short human-readable
    description of each action (a campaign wires it to its live status).
    """

    def __init__(self, obs_log: Optional[str] = None,
                 echo: Optional[Callable[[str], None]] = None) -> None:
        self.obs_log = obs_log
        self.echo = echo

    def emit(self, kind: str, note: str = "", **fields) -> None:
        global_registry().counter(f"resilience.{kind}").inc()
        if self.obs_log:
            obs_events.append_sidecar_event(
                self.obs_log, obs_events.resilience_event(kind, **fields)
            )
        if self.echo is not None and note:
            self.echo(note)


# ---------------------------------------------------------------------------
# checkpoint files
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """In-memory view of a campaign checkpoint."""

    key: str
    workload: str
    scheme: str
    trials: int
    completed: Dict[int, TrialResult]
    obs_log: Optional[str] = None
    obs_log_offset: int = 0


def _checkpoint_document(checkpoint: Checkpoint) -> Dict:
    payload = {
        "v": CHECKPOINT_SCHEMA_VERSION,
        "key": checkpoint.key,
        "workload": checkpoint.workload,
        "scheme": checkpoint.scheme,
        "trials": checkpoint.trials,
        "obs_log": checkpoint.obs_log,
        "obs_log_offset": checkpoint.obs_log_offset,
        "completed": {
            str(i): trial_to_record(t)
            for i, t in sorted(checkpoint.completed.items())
        },
    }
    payload["sha256"] = durable.canonical_sha256(payload)
    return payload


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Atomically persist ``checkpoint``.

    A crash mid-write can therefore never leave a half-written checkpoint
    under ``path`` — resume sees either the previous complete checkpoint or
    the new one.
    """
    with trace_mod.current().span(
        "checkpoint.save", cat="resilience",
        completed=len(checkpoint.completed),
    ):
        durable.write_json_atomic(path, _checkpoint_document(checkpoint))


def _verified_checkpoint(document: Dict) -> Dict:
    """The checkpoint document with its checksum and schema verified."""
    stored = document.pop("sha256")
    if durable.canonical_sha256(document) != stored:
        raise ValueError("checkpoint checksum mismatch")
    if document.get("v") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError("unknown checkpoint schema")
    document["completed"] = {
        int(i): trial_from_record(rec)
        for i, rec in document["completed"].items()
    }
    return document


def load_checkpoint(
    path, key: str, trials: int,
    logger: Optional[ResilienceLogger] = None,
) -> Optional[Checkpoint]:
    """Load and verify a checkpoint; corrupt or mismatched files quarantine.

    Returns None when there is nothing usable: no file, a checksum mismatch
    (quarantined), or a checkpoint for a *different* campaign (key or trial
    count mismatch — left in place: it likely belongs to another run and
    will be overwritten only by an explicit save).
    """
    path = os.fspath(path)
    with trace_mod.current().span("checkpoint.load", cat="resilience"):
        document = durable.load_verified(
            path, _verified_checkpoint, logger or ResilienceLogger(),
            "checkpoint_corrupt",
            note=f"corrupt checkpoint quarantined: {path}",
        )
    if document is None:
        return None
    if document.get("key") != key or document.get("trials") != trials:
        return None
    return Checkpoint(
        key=key,
        workload=document.get("workload", ""),
        scheme=document.get("scheme", ""),
        trials=trials,
        completed=document["completed"],
        obs_log=document.get("obs_log"),
        obs_log_offset=int(document.get("obs_log_offset", 0)),
    )


class Checkpointer:
    """Accumulates completed (index, trial) pairs and flushes periodically.

    ``record`` is called for every finished trial (restored ones are
    prefilled); every ``every`` *new* records — and on ``flush(force=True)``
    from the campaign's interrupt handler — the full completed map is
    written atomically.  ``clear`` removes the file once the campaign
    finished and its results were returned.
    """

    def __init__(self, path, checkpoint: Checkpoint, every: int,
                 logger: Optional[ResilienceLogger] = None) -> None:
        self.path = os.fspath(path)
        self.checkpoint = checkpoint
        self.every = max(1, every)
        self.logger = logger or ResilienceLogger()
        self._unflushed = 0

    @property
    def completed(self) -> Dict[int, TrialResult]:
        return self.checkpoint.completed

    def record(self, index: int, trial: TrialResult) -> None:
        if index in self.checkpoint.completed:
            return
        self.checkpoint.completed[index] = trial
        self._unflushed += 1
        if self._unflushed >= self.every:
            self.flush()

    def flush(self, force: bool = False) -> None:
        if self._unflushed == 0 and not force:
            return
        try:
            save_checkpoint(self.path, self.checkpoint)
        except OSError:  # pragma: no cover - checkpointing is best effort
            return
        self._unflushed = 0
        self.logger.emit(
            "checkpoint_write",
            path=self.path,
            completed=len(self.checkpoint.completed),
            trials=self.checkpoint.trials,
        )

    def clear(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            return
        self.logger.emit(
            "checkpoint_clear", path=self.path,
            trials=self.checkpoint.trials,
        )


# ---------------------------------------------------------------------------
# obs-log resume support
# ---------------------------------------------------------------------------


def obs_log_size(path: Optional[str]) -> int:
    """Current byte length of the (append-mode) obs log; 0 when absent."""
    if not path:
        return 0
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def truncate_obs_log(path: str, offset: int) -> None:
    """Drop the partial campaign a crashed run appended after ``offset``.

    The resuming campaign rewrites its events from the first byte it owns,
    which is what makes a resumed log byte-identical to an uninterrupted
    one.  A log shorter than ``offset`` is left alone (someone rotated or
    deleted it — the resumed campaign simply appends a complete log).
    """
    try:
        if os.path.getsize(path) <= offset:
            return
        with open(path, "r+", encoding="utf-8") as fh:
            fh.truncate(offset)
    except OSError:  # pragma: no cover - resume degrades to plain append
        pass


def backoff_delay(base: float, attempt: int) -> float:
    """Exponential backoff: ``base * 2**(attempt-1)`` seconds, capped at 30."""
    return min(base * (2 ** max(0, attempt - 1)), 30.0)


def jittered_backoff(base: float, attempt: int, key: str = "") -> float:
    """Exponential backoff with *deterministic* jitter in ``[0.5x, 1.0x]``.

    Under the service's worker pools many campaigns can lose workers at the
    same instant (one bad host, one OOM sweep); pure exponential backoff
    would have them all retry in lockstep, re-creating the overload that
    killed them — a synchronized retry storm.  Random jitter breaks the
    storm but breaks reproducibility with it.  This jitter is seeded from
    ``key`` (the campaign/job content key) and the attempt number, so
    retries de-synchronize *across* campaigns while any single campaign's
    retry schedule is a pure function of what it is — re-running the same
    failure replays the same delays.

    An empty ``key`` degrades to the un-jittered :func:`backoff_delay`.
    """
    delay = backoff_delay(base, attempt)
    if not key or delay <= 0:
        return delay
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return delay * (0.5 + 0.5 * fraction)


def sleep(seconds: float) -> None:  # patch point for tests
    if seconds > 0:
        time.sleep(seconds)
