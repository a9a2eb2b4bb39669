"""Live campaign telemetry: an atomically-updated heartbeat/status file.

A long campaign is opaque from the outside: the progress printer writes to
the owning terminal, and the obs JSONL log only tallies finished work.  The
heartbeat is the pollable view — a single small JSON document, atomically
replaced (temp file + ``os.replace``) at a rate-limited cadence, that any
external process can read at any instant and always see a complete,
parseable status:

.. code-block:: json

    {
      "v": 1,
      "workload": "g721dec", "scheme": "dup_valchk",
      "status": "running",
      "trials_done": 1234, "trials_total": 40000,
      "outcomes": {"Masked": 900, "SWDetect": 300, "...": 0},
      "trials_per_sec": 311.2, "trials_per_sec_ema": 324.9,
      "eta_seconds": 119.4, "elapsed_seconds": 3.97,
      "resilience_incidents": 0,
      "pid": 12345, "updated_unix": 1733787000.123
    }

This is the pre-work for the ``repro.serve`` campaign service (ROADMAP):
the submit/status/results API will stream exactly this document.  Watch it
live with ``python -m repro.obs top <file>``.

Configured via ``CampaignConfig.heartbeat`` (``--heartbeat`` or
``REPRO_HEARTBEAT=/path/to/status.json``); off by default.  Like every
telemetry artifact, the heartbeat is wall-clock data in a sidecar only:
campaign results, obs logs, cache keys, and checkpoints are byte-identical
with it on or off.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

from .. import durable

__all__ = [
    "HEARTBEAT_SCHEMA_VERSION",
    "HeartbeatWriter",
    "effective_status",
    "pid_alive",
    "read_heartbeat",
]

#: bump on any change to heartbeat field names or semantics
HEARTBEAT_SCHEMA_VERSION = 1

#: EMA smoothing for the instantaneous trials/sec estimate
_EMA_ALPHA = 0.3


class HeartbeatWriter:
    """Maintains one campaign's heartbeat file.

    ``trial`` is called once per completed trial (any order); writes are
    rate-limited to ``min_interval`` seconds so a 40k-trial campaign does
    not turn into 40k fsync-ish file replacements.  Every write is atomic:
    readers can never observe a torn document.  All file IO is best effort —
    telemetry must never fail a campaign.
    """

    def __init__(
        self,
        path: str,
        workload: str = "",
        scheme: str = "",
        total: int = 0,
        min_interval: float = 0.25,
    ) -> None:
        self.path = path
        self.workload = workload
        self.scheme = scheme
        self.total = total
        self.min_interval = min_interval
        self.done = 0
        self.outcomes: Dict[str, int] = {}
        self.incidents = 0
        self._start = time.perf_counter()
        self._last_write = 0.0
        self._last_rate_t = self._start
        self._last_rate_done = 0
        self._ema: Optional[float] = None

    # -- accounting --------------------------------------------------------

    def trial(self, outcome: str) -> None:
        self.done += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        now = time.perf_counter()
        if now - self._last_write >= self.min_interval:
            self.write(now=now)

    def trials(self, outcomes) -> None:
        """Account a whole burst of completed trials at once.

        A chunk (a batched lane sweep, a pool worker's chunk) finishes many
        trials in one step.  Folding them in one call (instead of
        per-trial ``trial`` calls) keeps the rate estimate honest: the
        burst's own trials are inside the window the instantaneous rate is
        sampled over, so the EMA reflects effective trials/sec — trials per
        second, not chunks per second.
        """
        for outcome in outcomes:
            self.done += 1
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        now = time.perf_counter()
        if now - self._last_write >= self.min_interval:
            self.write(now=now)

    def incident(self, kind: str = "") -> None:
        """Count one resilience action (retry, fallback, quarantine, ...)."""
        self.incidents += 1
        self.write()

    def begin(self) -> None:
        """Force the initial document so watchers see the campaign early."""
        self.write(status="running")

    def finish(self, status: str = "done") -> None:
        """Force the terminal document (``done`` / ``failed``)."""
        self.write(status=status)

    # -- writing -----------------------------------------------------------

    def _update_rates(self, now: float) -> Dict[str, Optional[float]]:
        elapsed = max(now - self._start, 1e-9)
        overall = self.done / elapsed
        dt = now - self._last_rate_t
        if dt > 0 and self.done > self._last_rate_done:
            instantaneous = (self.done - self._last_rate_done) / dt
            self._ema = (
                instantaneous if self._ema is None
                else _EMA_ALPHA * instantaneous + (1 - _EMA_ALPHA) * self._ema
            )
            self._last_rate_t = now
            self._last_rate_done = self.done
        rate = self._ema if self._ema is not None else overall
        remaining = max(0, self.total - self.done)
        eta = remaining / rate if rate > 0 and remaining else None
        return {
            "elapsed": elapsed, "overall": overall,
            "ema": self._ema, "eta": eta,
        }

    def document(self, status: str = "running",
                 now: Optional[float] = None) -> Dict:
        now = time.perf_counter() if now is None else now
        rates = self._update_rates(now)
        return {
            "v": HEARTBEAT_SCHEMA_VERSION,
            "workload": self.workload,
            "scheme": self.scheme,
            "status": status,
            "trials_done": self.done,
            "trials_total": self.total,
            "outcomes": dict(sorted(self.outcomes.items())),
            "trials_per_sec": round(rates["overall"], 2),
            "trials_per_sec_ema": (
                round(rates["ema"], 2) if rates["ema"] is not None else None
            ),
            "eta_seconds": (
                round(rates["eta"], 1) if rates["eta"] is not None else None
            ),
            "elapsed_seconds": round(rates["elapsed"], 2),
            "resilience_incidents": self.incidents,
            "pid": os.getpid(),
            "updated_unix": round(time.time(), 3),
        }

    def write(self, status: str = "running",
              now: Optional[float] = None) -> None:
        """Atomically replace the heartbeat file (best effort)."""
        now = time.perf_counter() if now is None else now
        self._last_write = now
        document = self.document(status=status, now=now)
        try:
            durable.write_json_atomic(self.path, document)
        except OSError:  # pragma: no cover - telemetry is best effort
            pass


def pid_alive(pid) -> bool:
    """Is a process with this pid still running (best effort)?

    ``os.kill(pid, 0)`` probes without signalling.  ``PermissionError``
    means the pid exists but belongs to someone else — alive.  Anything
    unparseable or probe-less (no ``os.kill``, pid 0/None) reports dead,
    which is the conservative answer for staleness checks: a heartbeat we
    cannot attribute to a live process must not be trusted as running.
    """
    try:
        pid = int(pid)
    except (TypeError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except (OSError, AttributeError):
        return False
    return True


def effective_status(doc: Dict) -> str:
    """The heartbeat's status after demoting dead-owner ``running`` docs.

    A campaign that is SIGKILLed after its last heartbeat write leaves a
    file that claims ``running`` forever.  Any consumer that would *act* on
    a running status (the ``top`` dashboard, the service's job view) must
    call this instead of trusting the stored field: when the owning pid is
    gone the status is demoted to ``"stale"``.
    """
    status = str(doc.get("status", "?"))
    if status in ("running", "draining") and not pid_alive(doc.get("pid")):
        return "stale"
    return status


def read_heartbeat(path) -> Optional[Dict]:
    """Parse a heartbeat file; None when absent or (transiently) unreadable.

    Unreadable should never actually happen — writes are atomic — but a
    watcher must tolerate a file that is being deleted or lives on a
    filesystem without atomic replace.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
