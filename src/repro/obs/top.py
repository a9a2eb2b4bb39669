"""``python -m repro.obs top`` — live terminal view of campaigns + service.

Tails the heartbeat file written by a campaign started with ``--heartbeat``
(or ``REPRO_HEARTBEAT``) and re-renders a compact dashboard at an interval:
progress bar, trials/sec (overall + EMA), ETA, per-outcome tallies, and the
resilience incident count.  Pointed at a ``repro.serve`` service heartbeat
(``<root>/service.json``) it renders the multi-job queue view instead:
queue counts, admission depth, and one row per active job with its live
trial progress.  Purely a *reader* — it never writes anything and can
watch a campaign owned by any process.

**Stale demotion.**  A campaign SIGKILLed after its last heartbeat write
leaves a file claiming ``running`` forever.  Every rendered frame therefore
re-derives the status via :func:`~repro.obs.heartbeat.effective_status`:
a ``running`` document whose owning pid is dead is demoted to ``stale``,
counted in the ``heartbeat.stale`` metric (once per transition into
staleness, not per rendered frame), and — under ``--until-done`` —
terminates the watch with exit code 3 instead of wedging it.

``--once`` renders a single snapshot and exits (CI smoke uses it);
``--until-done`` exits when the heartbeat reports a terminal status.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, TextIO

from .heartbeat import effective_status, format_eta, read_heartbeat
from .metrics import global_registry

__all__ = ["render_heartbeat", "render_service", "watch"]

#: heartbeat older than this many seconds is flagged as stale-by-age
_STALE_AFTER = 10.0

_BAR_WIDTH = 30


def _status_line(doc: Dict, now_unix: float) -> str:
    """Shared status fragment with dead-pid demotion + age flagging."""
    status = effective_status(doc)
    if status == "stale":
        status = f"stale(pid {doc.get('pid', '?')} dead)"
    else:
        age = now_unix - float(doc.get("updated_unix", now_unix) or now_unix)
        if status == "running" and age > _STALE_AFTER:
            status += " (STALE)"
    age = now_unix - float(doc.get("updated_unix", now_unix) or now_unix)
    return f"status={status}  pid={doc.get('pid', '?')}  updated {age:.1f}s ago"


def render_heartbeat(doc: Dict, now_unix: Optional[float] = None) -> str:
    """One dashboard frame from a single-campaign heartbeat document."""
    now_unix = time.time() if now_unix is None else now_unix
    done = int(doc.get("trials_done", 0) or 0)
    total = int(doc.get("trials_total", 0) or 0)
    frac = done / total if total else 0.0
    filled = int(frac * _BAR_WIDTH)
    bar = "#" * filled + "-" * (_BAR_WIDTH - filled)

    lines = [
        f"{doc.get('workload', '?')}/{doc.get('scheme', '?')}  "
        + _status_line(doc, now_unix),
        f"[{bar}] {done}/{total} ({frac:7.1%})",
        f"rate: {doc.get('trials_per_sec', 0)} trials/s overall"
        + (f", {doc['trials_per_sec_ema']} ema"
           if doc.get("trials_per_sec_ema") is not None else "")
        + f"  eta {format_eta(doc.get('eta_seconds'))}"
        + f"  elapsed {doc.get('elapsed_seconds', 0)}s",
    ]
    outcomes = doc.get("outcomes") or {}
    if outcomes:
        lines.append("outcomes: " + "  ".join(
            f"{name}={count}" for name, count in outcomes.items()
        ))
    incidents = doc.get("resilience_incidents", 0)
    if incidents:
        lines.append(f"resilience incidents: {incidents}")
    return "\n".join(lines)


def render_service(doc: Dict, now_unix: Optional[float] = None) -> str:
    """One dashboard frame from a ``repro.serve`` service heartbeat."""
    now_unix = time.time() if now_unix is None else now_unix
    lines = [
        "campaign service  " + _status_line(doc, now_unix),
        f"depth {doc.get('depth', 0)}/{doc.get('max_depth', '?')}  "
        f"workers {doc.get('workers_busy', 0)}/{doc.get('workers', '?')}",
    ]
    counts = doc.get("counts") or {}
    if counts:
        lines.append("queue:  " + "  ".join(
            f"{name}={count}" for name, count in sorted(counts.items())
        ))
    counters = doc.get("counters") or {}
    if counters:
        lines.append("totals: " + "  ".join(
            f"{name}={count}" for name, count in sorted(counters.items())
        ))
    jobs = doc.get("jobs") or []
    for job in jobs:
        row = (f"  {job.get('id', '?'):<14} {job.get('state', '?'):<9} "
               f"{job.get('tenant', '?'):<10} {job.get('spec', '')}")
        total = int(job.get("trials_total", 0) or 0)
        if total:
            row += f"  {job.get('trials_done', 0)}/{total}"
        attempts = int(job.get("attempts", 0) or 0)
        if attempts:
            row += f"  attempts={attempts}"
        lines.append(row)
    return "\n".join(lines)


def _render(doc: Dict, now_unix: Optional[float] = None) -> str:
    if doc.get("kind") == "service":
        return render_service(doc, now_unix=now_unix)
    return render_heartbeat(doc, now_unix=now_unix)


def watch(
    path: str,
    interval: float = 1.0,
    once: bool = False,
    until_done: bool = False,
    stream: Optional[TextIO] = None,
    max_frames: Optional[int] = None,
) -> int:
    """Render the heartbeat at ``interval`` until interrupted.

    Returns an exit code: 0 on a clean exit (``--once`` with a readable
    file, terminal status under ``--until-done``, or Ctrl-C), 1 when
    ``--once`` found no readable heartbeat, 3 when ``--until-done`` hit a
    heartbeat whose owner is dead (a wedged watch is worse than a loud
    one).  ``max_frames`` bounds the loop for tests.
    """
    stream = stream if stream is not None else sys.stdout
    frames = 0
    was_stale = False
    try:
        while True:
            doc = read_heartbeat(path)
            if doc is None:
                was_stale = False
                print(f"[repro.obs top] no heartbeat at {path} (yet?)",
                      file=stream, flush=True)
                if once:
                    return 1
            else:
                # Count *detections*, not refreshes: the stale counter ticks
                # once on the transition into staleness, however long the
                # watch keeps re-rendering the same dead heartbeat.
                stale = effective_status(doc) == "stale"
                if stale and not was_stale:
                    global_registry().counter("heartbeat.stale").inc()
                was_stale = stale
                if not once and stream.isatty():  # pragma: no cover - terminal
                    stream.write("\x1b[2J\x1b[H")
                print(_render(doc), file=stream, flush=True)
                if once:
                    return 0
                if until_done:
                    status = effective_status(doc)
                    if status in ("done", "failed", "stopped"):
                        return 0
                    if status == "stale":
                        print(f"[repro.obs top] owner pid {doc.get('pid')} "
                              f"is dead; giving up", file=stream, flush=True)
                        return 3
            frames += 1
            if max_frames is not None and frames >= max_frames:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    except BrokenPipeError:
        # Downstream pipe reader (head, grep -q) closed early: clean exit.
        return 0
