"""Live campaign status: one tally, published as a heartbeat file and a
progress line.

A long campaign has two live views.  The progress line goes to the owning
terminal (stderr).  The heartbeat is the pollable view for everyone else —
a single small JSON document, atomically replaced (temp file +
``os.replace``) at a rate-limited cadence, that any external process can
read at any instant and always see a complete, parseable status:

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

Both views come from one :class:`LiveStatus`, which ``run_campaign`` builds
from ``CampaignConfig.heartbeat`` (``--heartbeat`` or
``REPRO_HEARTBEAT=/path/to/status.json``; off by default) and its
``progress`` stream.  Watch the file live with ``python -m repro.obs top
<file>``.  The campaign service (:mod:`repro.serve`) gives each job's
campaign one of these files and writes its own ``service.json`` document
for the service as a whole.  Like every telemetry artifact, the live status
is wall-clock data outside the results: campaign results, obs logs, cache
keys, and checkpoints are byte-identical with it on or off.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, Optional, TextIO, Tuple

from .. import durable

__all__ = [
    "HEARTBEAT_SCHEMA_VERSION",
    "LiveStatus",
    "effective_status",
    "format_eta",
    "pid_alive",
    "read_heartbeat",
]

#: bump on any change to heartbeat field names or semantics
HEARTBEAT_SCHEMA_VERSION = 1

#: EMA smoothing for the rolling trials/sec estimate
_EMA_ALPHA = 0.3

#: progress-line tally names, keyed by outcome value in ``Outcome`` order
_SHORT = {
    "Masked": "masked",
    "HWDetect": "hw",
    "SWDetect": "sw",
    "Failure": "fail",
    "USDC": "usdc",
}


def format_eta(seconds: Optional[float]) -> str:
    """``mm:ss`` (``h:mm:ss`` from an hour up); ``--:--`` when unknown."""
    if seconds is None:
        return "--:--"
    seconds = int(seconds)
    if seconds >= 3600:
        return (f"{seconds // 3600}:"
                f"{seconds % 3600 // 60:02d}:{seconds % 60:02d}")
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


class LiveStatus:
    """One campaign's live tally and its two outputs.

    The tally is trials done, outcome counts, resilience incidents, and one
    rolling (EMA) trials/sec with the ETA it implies.  It is published to
    the heartbeat file at ``path`` and/or as a progress line on ``stream``;
    either output is off when not given.

    * The file is replaced atomically at most every ``file_interval``
      seconds, and at once on :meth:`begin`, :meth:`incident` and
      :meth:`finish`, so readers never see a torn document.
    * The line prints at the first trial, then at most once every
      ``line_interval`` seconds and at the last trial; :meth:`finish`
      prints a final line only when the tail went unprinted.

    File IO is best effort: telemetry must never fail a campaign.
    """

    def __init__(
        self,
        workload: str,
        scheme: str,
        total: int,
        path: str = "",
        stream: Optional[TextIO] = None,
        file_interval: float = 0.25,
        line_interval: float = 1.0,
    ) -> None:
        self.workload = workload
        self.scheme = scheme
        self.total = total
        self.path = path
        self.stream = stream
        self.file_interval = file_interval
        self.line_interval = line_interval
        self.done = 0
        #: outcome value -> trials (only outcomes seen so far)
        self.outcomes: Dict[str, int] = {}
        self.incidents = 0
        #: rolling trials/sec over the windows between publications (None
        #: until a publication has seen a trial)
        self.rate_ema: Optional[float] = None
        self._start = time.perf_counter()
        self._ema_t = self._start
        self._ema_done = 0
        # -inf, not 0.0: perf_counter() may count from boot, and the first
        # trial must print even on a host up for less than line_interval.
        self._last_write = self._last_line = float("-inf")
        #: value of ``done`` at the last printed line (-1: nothing printed)
        self._line_done = -1

    # -- tally ---------------------------------------------------------------

    def begin(self) -> None:
        """Write the first document, so watchers see the campaign early."""
        self._write("running", time.perf_counter())

    def add(self, outcomes: Iterable[str]) -> None:
        """Count a chunk of finished trials, given by outcome value.

        A chunk (a pool worker's, a batched lane sweep) finishes many trials
        at once.  Counting it in one step, before either output publishes,
        puts all its trials inside the window the rolling rate is sampled
        over, so the EMA measures trials per second, not chunks per second.
        """
        for outcome in outcomes:
            self.done += 1
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        now = time.perf_counter()
        if now - self._last_write >= self.file_interval:
            self._write("running", now)
        if (now - self._last_line >= self.line_interval
                or self.done == self.total):
            self._print(now)

    def incident(self, note: str) -> None:
        """Count one resilience action and show its note at once.

        Bypasses both rate limits: recovery actions are rare, and the user
        should see them when they happen, not at the next tick.
        """
        self.incidents += 1
        if self.stream is not None:
            print(f"  {self._label}: {note}", file=self.stream, flush=True)
        self._write("running", time.perf_counter())

    def finish(self, status: str = "done") -> None:
        """Publish the terminal state (``done`` / ``failed``).

        The file always gets it; the stream gets a last line ending
        ``(status)`` only when trials ran since the last printed line.
        Idempotent.
        """
        now = time.perf_counter()
        if self.done > 0 and self._line_done != self.done:
            self._print(now, final=status)
        self._write(status, now)

    # -- publishing ----------------------------------------------------------

    @property
    def _label(self) -> str:
        return f"{self.workload}/{self.scheme}"

    def _rates(self, now: float) -> Tuple[float, float]:
        """(elapsed seconds, overall trials/sec); folds the window since the
        last publication into the rolling rate."""
        elapsed = max(now - self._start, 1e-9)
        dt = now - self._ema_t
        if dt > 0 and self.done > self._ema_done:
            instantaneous = (self.done - self._ema_done) / dt
            self.rate_ema = (
                instantaneous if self.rate_ema is None
                else _EMA_ALPHA * instantaneous
                + (1 - _EMA_ALPHA) * self.rate_ema
            )
            self._ema_t = now
            self._ema_done = self.done
        return elapsed, self.done / elapsed

    def _eta(self) -> Optional[float]:
        remaining = self.total - self.done
        if not self.rate_ema or remaining <= 0:
            return None
        return remaining / self.rate_ema

    def _write(self, status: str, now: float) -> None:
        """Atomically replace the heartbeat file (best effort)."""
        if not self.path:
            return
        self._last_write = now
        elapsed, overall = self._rates(now)
        eta = self._eta()
        document = {
            "v": HEARTBEAT_SCHEMA_VERSION,
            "workload": self.workload,
            "scheme": self.scheme,
            "status": status,
            "trials_done": self.done,
            "trials_total": self.total,
            "outcomes": dict(sorted(self.outcomes.items())),
            "trials_per_sec": round(overall, 2),
            "trials_per_sec_ema": (
                round(self.rate_ema, 2) if self.rate_ema is not None else None
            ),
            "eta_seconds": round(eta, 1) if eta is not None else None,
            "elapsed_seconds": round(elapsed, 2),
            "resilience_incidents": self.incidents,
            "pid": os.getpid(),
            "updated_unix": round(time.time(), 3),
        }
        try:
            durable.write_json_atomic(self.path, document)
        except OSError:  # pragma: no cover - telemetry is best effort
            pass

    def _print(self, now: float, final: str = "") -> None:
        """One progress line; a ``final`` line drops the ETA and ends
        ``(final)``."""
        if self.stream is None:
            return
        self._last_line = now
        self._line_done = self.done
        _, overall = self._rates(now)
        ema = (f" ({self.rate_ema:.1f} ema)"
               if self.rate_ema is not None else "")
        eta = None if final else self._eta()
        eta = f" eta {format_eta(eta)}" if eta is not None else ""
        tallies = " ".join(
            f"{short}={self.outcomes[value]}"
            for value, short in _SHORT.items() if self.outcomes.get(value)
        )
        suffix = f" ({final})" if final else ""
        print(
            f"  {self._label}: [{self.done}/{self.total}] "
            f"{overall:.1f} trials/s{ema}{eta} {tallies}".rstrip() + suffix,
            file=self.stream, flush=True,
        )


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
