"""Hierarchical wall-clock span tracing for campaigns (Chrome trace events).

The performance story of this repo is a stack of layers — fast path,
parallel fan-out, golden-run snapshots, dead-flip triage — and this module
answers *where the wall-clock time actually goes* inside one campaign.  It
records hierarchical spans::

    campaign
      prepare
        build_module / profile / apply_scheme / golden_run / snapshot_capture
      chunk                      (one per worker dispatch unit)
        trial
          restore                (snapshot install)
          replay                 (pre-injection golden prefix)
          detect                 (post-injection execution until verdict)
          classify               (output comparison + fidelity)
      cache.get / cache.put / checkpoint.save / checkpoint.load / ...

and exports them as **Chrome trace-event JSON** — load the file at
https://ui.perfetto.dev (or ``chrome://tracing``) for a flame view per
process, or feed it to ``python -m repro.obs report --trace`` for a
per-phase self-time breakdown and a critical-path summary.

Design rules (the house determinism invariant):

* **Off by default, near-zero overhead when off.**  ``current()`` returns a
  shared null tracer whose ``span``/``instant`` are no-op one-liners unless
  ``REPRO_TRACE``/``--trace`` configured a path, so the instrumentation can
  live permanently in the campaign engine.
* **Wall-clock data never touches results.**  Spans are written to the trace
  file only — campaign results, the main obs JSONL log, cache keys, and
  checkpoints are byte-identical with tracing on or off, for any jobs count
  (differential tests enforce this).
* **Workers fold into the parent stream by pid.**  Worker processes buffer
  their spans and hand them back with each chunk's result
  (:mod:`repro.faultinjection.parallel`); the parent appends them to its own
  buffer, and each event keeps the pid it was recorded under, so Perfetto
  shows one track per worker process.

Timestamps come from ``time.perf_counter_ns()`` (CLOCK_MONOTONIC), which is
system-wide on the supported platforms, so parent and worker spans share one
timeline.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from .. import durable

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "TraceSummary",
    "activate",
    "current",
    "load_trace",
    "render_summary",
    "summarize_trace",
    "validate_trace",
]

#: bump on any change to exported event fields or semantics
TRACE_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


class _NullSpan:
    """Shared no-op span handed out by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def add(self, **args) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one complete ("ph": "X") event on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.add_complete(
            self.name, self.cat, self._start, time.perf_counter_ns(),
            **self.args,
        )

    def add(self, **args) -> None:
        """Attach args discovered mid-span (e.g. the trial outcome)."""
        self.args.update(args)


class _NullTracer:
    """Disabled tracer: every method is a no-op one-liner."""

    enabled = False
    path: Optional[str] = None

    def span(self, name: str, cat: str = "phase", **args) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "mark", **args) -> None:
        pass

    def add_complete(self, name: str, cat: str, start_ns: int, end_ns: int,
                     **args) -> None:
        pass

    def drain(self) -> List[Dict]:
        return []

    def export(self) -> None:
        pass


_NULL = _NullTracer()


class Tracer:
    """Buffers span events for one trace output path.

    Thread-compatible for the repo's usage (campaigns record from the main
    thread of each process); the buffer append is protected by a lock so
    incidental cross-thread spans cannot corrupt it.
    """

    enabled = True

    def __init__(self, path: str) -> None:
        self.path = path
        self.events: List[Dict] = []
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "phase", **args) -> _Span:
        return _Span(self, name, cat, args)

    def add_complete(self, name: str, cat: str, start_ns: int, end_ns: int,
                     **args) -> None:
        """Record one complete event from explicit perf_counter_ns stamps."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start_ns // 1000,
            "dur": max(0, (end_ns - start_ns) // 1000),
            "pid": os.getpid(),
            "tid": threading.get_ident() % 1_000_000,
        }
        if args:
            event["args"] = args
        with self._lock:
            self.events.append(event)

    def instant(self, name: str, cat: str = "mark", **args) -> None:
        """Record one instant ("ph": "i") event — e.g. a recovery action."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "p",
            "ts": time.perf_counter_ns() // 1000,
            "pid": os.getpid(),
            "tid": threading.get_ident() % 1_000_000,
        }
        if args:
            event["args"] = args
        with self._lock:
            self.events.append(event)

    # -- worker spans ------------------------------------------------------

    def drain(self) -> List[Dict]:
        """Remove and return the buffered events (a worker, after a chunk)."""
        with self._lock:
            events, self.events = self.events, []
        return events

    def extend(self, events: Iterable[Dict]) -> None:
        """Append events a worker recorded (the parent, per chunk)."""
        with self._lock:
            self.events.extend(events)

    # -- export ------------------------------------------------------------

    def export(self) -> Optional[str]:
        """Write the Chrome trace-event JSON file (atomic replace).

        Keeps the buffer, so a process running several traced campaigns
        against one path exports a cumulative trace.  Returns the path
        written, or None on failure.
        """
        with self._lock:
            events = list(self.events)
        pids = sorted({e.get("pid") for e in events if "pid" in e})
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": ("campaign" if i == 0
                                  else f"worker-{pid}")},
            }
            for i, pid in enumerate(pids)
        ]
        document = {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": TRACE_SCHEMA_VERSION,
                "generator": "repro.obs.trace",
            },
        }
        try:
            durable.write_json_atomic(self.path, document)
            return self.path
        except OSError:  # pragma: no cover - tracing is best effort
            return None


#: per-path tracer memo + the process-wide active tracer
_TRACERS: Dict[str, Tracer] = {}
_ACTIVE: object = _NULL


def activate(path: Optional[str]):
    """Bind the process-wide tracer to ``path`` (None deactivates).

    Campaign entry points call this after config resolution; library-level
    instrumentation (snapshots, compiled fast path, disk cache) reads the
    active tracer via :func:`current` so it needs no config plumbing.
    """
    global _ACTIVE
    if not path:
        _ACTIVE = _NULL
        return _NULL
    tracer = _TRACERS.get(path)
    if tracer is None:
        tracer = _TRACERS[path] = Tracer(path)
    elif tracer._owner_pid != os.getpid():
        # Fork-started worker: the inherited buffer still belongs to the
        # parent (which exports it itself) — flushing it from here would
        # duplicate every parent event, so the child starts empty.
        tracer.events = []
        tracer._lock = threading.Lock()
        tracer._owner_pid = os.getpid()
    _ACTIVE = tracer
    return tracer


def current():
    """The active tracer (the shared null tracer when tracing is off)."""
    return _ACTIVE


# ---------------------------------------------------------------------------
# loading + validation
# ---------------------------------------------------------------------------


def load_trace(path) -> Dict:
    """Parse an exported trace file (raises on unreadable/invalid JSON)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def validate_trace(document) -> List[str]:
    """Schema check of an exported trace; returns a list of problems.

    An empty list means the document is a well-formed Chrome trace-event
    JSON object as this module writes it: a ``traceEvents`` array whose
    complete events carry name/cat/ph/ts/dur/pid/tid with the right types.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["trace document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not an array"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue
        for field, types in (
            ("name", str), ("cat", str), ("ts", int),
            ("pid", int), ("tid", int),
        ):
            if not isinstance(event.get(field), types):
                problems.append(f"event {i}: bad {field!r} field")
        if ph == "X" and not isinstance(event.get("dur"), int):
            problems.append(f"event {i}: complete event without int 'dur'")
    return problems


# ---------------------------------------------------------------------------
# analysis: per-phase self time + critical path
# ---------------------------------------------------------------------------


class TraceSummary:
    """Per-phase timing attribution for one exported trace.

    ``phases`` maps ``(cat, name)`` to ``{count, total_us, self_us}`` where
    self time is the span's duration minus its direct children's durations
    (nesting inferred per (pid, tid) from interval containment).  Within one
    track the self times telescope: they sum exactly to the root spans'
    durations, which is what makes "self-times sum to ~100% of campaign
    wall time" a checkable property.
    """

    def __init__(self) -> None:
        self.phases: Dict[Tuple[str, str], Dict[str, float]] = {}
        self.campaign_wall_us = 0
        self.prepare_us = 0
        self.campaigns: List[Dict] = []
        self.instants: Dict[str, int] = {}
        self.pids: List[int] = []
        self.restores = 0
        self.restore_cycles_skipped = 0
        self.in_campaign_self_us = 0

    def phase_rows(self) -> List[Tuple[str, str, Dict[str, float]]]:
        rows = [
            (cat, name, stats) for (cat, name), stats in self.phases.items()
        ]
        rows.sort(key=lambda r: (-r[2]["self_us"], r[0], r[1]))
        return rows


def _assign_nesting(events: List[Dict]) -> None:
    """Compute each complete event's direct-children duration in place.

    Events must belong to one (pid, tid) track.  Adds a ``_child_us`` key.
    """
    events.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))
    stack: List[Dict] = []
    for event in events:
        event["_child_us"] = 0
        end = event["ts"] + event.get("dur", 0)
        while stack and stack[-1]["ts"] + stack[-1].get("dur", 0) <= event["ts"]:
            stack.pop()
        if stack and end <= stack[-1]["ts"] + stack[-1].get("dur", 0):
            stack[-1]["_child_us"] += event.get("dur", 0)
            event["_parent"] = stack[-1]
        stack.append(event)


def summarize_trace(document) -> TraceSummary:
    """Aggregate an exported trace into per-phase self-time totals."""
    summary = TraceSummary()
    events = [
        e for e in document.get("traceEvents", []) if isinstance(e, dict)
    ]
    completes = [e for e in events if e.get("ph") == "X"]
    for event in events:
        if event.get("ph") == "i":
            name = event.get("name", "?")
            summary.instants[name] = summary.instants.get(name, 0) + 1

    tracks: Dict[Tuple[int, int], List[Dict]] = {}
    for event in completes:
        tracks.setdefault(
            (event.get("pid", 0), event.get("tid", 0)), []
        ).append(event)
    for track in tracks.values():
        _assign_nesting(track)

    summary.pids = sorted({pid for pid, _ in tracks})
    for event in completes:
        key = (event.get("cat", "?"), event.get("name", "?"))
        stats = summary.phases.get(key)
        if stats is None:
            stats = summary.phases[key] = {
                "count": 0, "total_us": 0, "self_us": 0,
            }
        dur = event.get("dur", 0)
        self_us = max(0, dur - event.get("_child_us", 0))
        stats["count"] += 1
        stats["total_us"] += dur
        stats["self_us"] += self_us
        args = event.get("args") or {}
        name = event.get("name")
        if name == "campaign":
            summary.campaign_wall_us += dur
            summary.campaigns.append({
                "workload": args.get("workload"),
                "scheme": args.get("scheme"),
                "trials": args.get("trials"),
                "jobs": args.get("jobs"),
                "wall_us": dur,
            })
        elif name == "prepare":
            summary.prepare_us += dur
        elif name == "restore":
            summary.restores += 1
            summary.restore_cycles_skipped += int(args.get("cycles", 0) or 0)

    # Self time attributable to a campaign root: every span (transitively)
    # nested inside a "campaign" span, plus the campaign's own self time.
    for event in completes:
        node = event
        while node is not None:
            if node.get("name") == "campaign":
                dur = event.get("dur", 0)
                summary.in_campaign_self_us += max(
                    0, dur - event.get("_child_us", 0)
                )
                break
            node = node.get("_parent")
    return summary


def _fmt_us(us: float) -> str:
    if us >= 1_000_000:
        return f"{us / 1e6:.2f}s"
    if us >= 1_000:
        return f"{us / 1e3:.1f}ms"
    return f"{us:.0f}us"


def render_summary(summary: TraceSummary, top: int = 20) -> str:
    """Terminal rendering of a trace summary (``repro.obs report --trace``)."""
    lines: List[str] = []
    w = lines.append
    w("== trace phase report ==")
    w(f"processes: {len(summary.pids)}  campaign spans: "
      f"{len(summary.campaigns)}  campaign wall: "
      f"{_fmt_us(summary.campaign_wall_us)}")
    for c in summary.campaigns:
        w(f"  - {c.get('workload')}/{c.get('scheme')} "
          f"trials={c.get('trials')} jobs={c.get('jobs')} "
          f"wall={_fmt_us(c.get('wall_us', 0))}")

    w("")
    w("per-phase self time (sorted; self = duration minus direct children):")
    w(f"  {'cat':12s} {'phase':18s} {'count':>7s} {'total':>10s} "
      f"{'self':>10s} {'self %':>7s}")
    wall = summary.campaign_wall_us or sum(
        s["self_us"] for s in summary.phases.values()
    ) or 1
    rows = summary.phase_rows()
    for cat, name, stats in rows[:top]:
        w(f"  {cat[:12]:12s} {name[:18]:18s} {stats['count']:7d} "
          f"{_fmt_us(stats['total_us']):>10s} "
          f"{_fmt_us(stats['self_us']):>10s} "
          f"{stats['self_us'] / wall:7.1%}")
    if len(rows) > top:
        w(f"  ... {len(rows) - top} more phases")

    if summary.campaign_wall_us:
        coverage = summary.in_campaign_self_us / summary.campaign_wall_us
        w("")
        w(f"accounted inside campaign spans: "
          f"{_fmt_us(summary.in_campaign_self_us)} "
          f"({coverage:.1%} of campaign wall)")

    w("")
    w("critical path:")
    prepare = summary.prepare_us
    injection = max(0, summary.campaign_wall_us - prepare)
    if summary.campaign_wall_us:
        w(f"  prepare (one-time):   {_fmt_us(prepare):>10s} "
          f"({prepare / (summary.campaign_wall_us or 1):5.1%})")
        w(f"  injection + overhead: {_fmt_us(injection):>10s} "
          f"({injection / (summary.campaign_wall_us or 1):5.1%})")
    replay = summary.phases.get(("trial", "replay"), {}).get("total_us", 0)
    detect = summary.phases.get(("trial", "detect"), {}).get("total_us", 0)
    if replay or detect:
        w(f"  replay vs detect:     {_fmt_us(replay):>10s} replaying the "
          f"golden prefix, {_fmt_us(detect)} post-injection")
    if summary.restores:
        w(f"  snapshot restores:    {summary.restores} trials fast-forwarded, "
          f"{summary.restore_cycles_skipped} golden cycles skipped")
    if summary.instants:
        w("")
        w("instant markers: " + "  ".join(
            f"{name}={count}"
            for name, count in sorted(summary.instants.items())
        ))
    return "\n".join(lines)
