"""Run settings: the table of ``REPRO_*`` environment knobs and one resolver.

This is the only module that reads the environment.  Settings live on four
dataclasses — :class:`~repro.faultinjection.campaign.CampaignConfig`,
:class:`~repro.faultinjection.resilience.ResiliencePolicy`,
:class:`~repro.experiments.runner.ExperimentSettings` and
:class:`~repro.serve.service.ServiceConfig`.  A field with an environment
twin names its :class:`Knob` in ``field(metadata=tags(...))``; a few knobs
(:data:`FASTPATH`, :data:`CACHE`, :data:`CACHE_DIR`) have no field and are
read where they act.

**Precedence.**  A flag or constructor argument wins, then the environment
variable, then the knob's default.  Any explicit value wins, including
``False``, ``0`` and ``""`` (``""`` turns a path off).  :func:`resolve`
fills every field left ``None`` once, at the entry points; code below them
takes resolved settings.

**Parse rule** (every variable): the text is stripped and empty means
unset; ``0``/``off``/``false``/``no`` means off — ``False`` for a switch,
``0`` for a number, and the default for a string (for a path that is
``""``, no path).  An unparsable number falls back to the default with one
``RuntimeWarning`` per variable.

**Result tags.**  Every :class:`CampaignConfig` field is tagged
result-affecting or execution-only; the disk-cache key and the service's
content key hash exactly the result-affecting ones (:func:`result_fields`),
so an execution knob cannot fragment a cache and a result knob cannot be
left out of a key.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "ENV_NAMES",
    "KNOBS",
    "Knob",
    "OFF_WORDS",
    "resolve",
    "result_fields",
    "tags",
]

#: words that turn a knob off
OFF_WORDS = frozenset({"0", "off", "false", "no"})

#: variables that already warned about an unparsable number (once each)
_warned: set = set()


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` variable: its name, its default and its floor.

    The default's type picks the parser: a bool is a switch, an int or a
    float is a number (clamped to ``floor``), and a string is a path or a
    name (``""`` is no path), or a choice when ``choices`` are given (other
    words mean the default).
    """

    name: str
    default: Any = ""
    floor: Optional[float] = None
    choices: Tuple[str, ...] = ()

    def read(self) -> Any:
        """The variable's value under the parse rule."""
        text = os.environ.get(self.name, "").strip()
        if not text:
            return self.default
        off = text.lower() in OFF_WORDS
        if isinstance(self.default, bool):
            return not off
        if isinstance(self.default, (int, float)):
            kind = type(self.default)
            try:
                return self.normalize(kind(0) if off else kind(text))
            except ValueError:
                if self.name not in _warned:
                    _warned.add(self.name)
                    warnings.warn(
                        f"{self.name}={text!r} is not a number; using the "
                        f"default {self.default!r}",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                return self.default
        if self.choices:
            text = text.lower()
            return text if text in self.choices else self.default
        return self.default if off else text

    def normalize(self, value):
        """Clamp a number to the knob's floor."""
        if self.floor is None:
            return value
        return max(self.floor, value)


class _WorkerCount(Knob):
    """A worker count: ``0`` means one per CPU, anything else is at least 1."""

    def normalize(self, value):
        return (os.cpu_count() or 1) if value == 0 else max(1, value)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

#: simulate on the compiled fast path (``0`` selects the reference
#: interpreter, the differential oracle)
FASTPATH = Knob("REPRO_FASTPATH", True)
#: read and write the on-disk campaign cache
CACHE = Knob("REPRO_CACHE", True)
#: campaign cache directory (default ``~/.cache/repro``)
CACHE_DIR = Knob("REPRO_CACHE_DIR")

#: campaign worker processes
JOBS = _WorkerCount("REPRO_JOBS", 1)
#: trials per campaign of an experiment sweep (the paper used 1000)
TRIALS = Knob("REPRO_TRIALS", 60, floor=1)
#: fault model injected by every trial
FAULT_MODEL = Knob("REPRO_FAULT_MODEL", "single_bit")
#: trial event log path
OBS = Knob("REPRO_OBS")
#: per-trial wall-clock times in the event log
OBS_TIMING = Knob("REPRO_OBS_TIMING", False)
#: Chrome trace-event output path
TRACE = Knob("REPRO_TRACE")
#: live status file path
HEARTBEAT = Knob("REPRO_HEARTBEAT")
#: checkpoint file of one campaign
CHECKPOINT = Knob("REPRO_CHECKPOINT")
#: directory of per-campaign checkpoint files for experiment sweeps
CHECKPOINT_DIR = Knob("REPRO_CHECKPOINT_DIR")
#: golden-run snapshot cadence: 0 off, -1 automatic, N every N cycles
SNAPSHOT_EVERY = Knob("REPRO_SNAPSHOT_EVERY", -1)
#: dead-flip and dead-region triage
TRIAGE = Knob("REPRO_TRIAGE", True)
#: batched lanes per sweep (0 and 1 are off)
BATCH = Knob("REPRO_BATCH", 0, floor=0)

#: worker-failure recovery: a switch, and also the policy when it names one
RESILIENCE = Knob("REPRO_RESILIENCE", True)
WORKER_FAILURE = Knob(
    "REPRO_RESILIENCE", "retry", choices=("retry", "serial", "fail")
)
#: pool re-creations before the serial fallback
MAX_RETRIES = Knob("REPRO_MAX_RETRIES", 2, floor=0)
#: per-trial wall-clock watchdog in seconds (0 is off)
TRIAL_DEADLINE = Knob("REPRO_TRIAL_DEADLINE", 0.0, floor=0.0)
#: completed trials between checkpoint writes
CHECKPOINT_EVERY = Knob("REPRO_CHECKPOINT_EVERY", 25, floor=1)

#: concurrent service jobs
SERVE_WORKERS = Knob("REPRO_SERVE_WORKERS", 2, floor=1)
#: service admission bound on queued + running jobs
SERVE_DEPTH = Knob("REPRO_SERVE_DEPTH", 256, floor=1)
#: failed attempts before a service job is quarantined
SERVE_RETRIES = Knob("REPRO_SERVE_RETRIES", 3, floor=1)

KNOBS: Tuple[Knob, ...] = (
    FASTPATH, CACHE, CACHE_DIR, JOBS, TRIALS, FAULT_MODEL, OBS, OBS_TIMING,
    TRACE, HEARTBEAT, CHECKPOINT, CHECKPOINT_DIR, SNAPSHOT_EVERY, TRIAGE,
    BATCH, RESILIENCE, WORKER_FAILURE, MAX_RETRIES, TRIAL_DEADLINE,
    CHECKPOINT_EVERY, SERVE_WORKERS, SERVE_DEPTH, SERVE_RETRIES,
)

#: every environment variable the program reads
ENV_NAMES: Tuple[str, ...] = tuple(sorted({knob.name for knob in KNOBS}))


# ---------------------------------------------------------------------------
# field tags and resolution
# ---------------------------------------------------------------------------


def tags(knob: Optional[Knob] = None, *, result: Optional[bool] = None,
         nested: Optional[type] = None) -> Dict[str, Any]:
    """Field metadata: the env twin, the result tag, a nested settings class.

    ``result`` is True for a :class:`CampaignConfig` field that changes what
    a campaign computes and False for one that only changes how it runs.
    ``nested`` names the settings class that :func:`resolve` builds for a
    field left ``None`` (and resolves when it is set).
    """
    return {"knob": knob, "result": result, "nested": nested}


def resolve(settings):
    """``settings`` with every ``None`` field filled, nested ones resolved.

    A field with a knob takes its environment variable, else the knob's
    default; an explicit value is kept, only clamped to the knob's floor.
    No ``None`` survives, so resolving resolved settings reads no
    environment and returns them unchanged.
    """
    changes = {}
    for name, knob, nested in _tagged_fields(type(settings)):
        value = getattr(settings, name)
        if knob is not None:
            new = knob.read() if value is None else knob.normalize(value)
        else:
            new = resolve(nested() if value is None else value)
        if new is not value and (new != value or type(new) is not type(value)):
            changes[name] = new
    return dataclasses.replace(settings, **changes) if changes else settings


@functools.lru_cache(maxsize=None)
def _tagged_fields(cls) -> Tuple[Tuple[str, Optional[Knob], Any], ...]:
    """``(name, knob, nested)`` of the fields :func:`resolve` fills.

    Cached per class: ``run_trial`` resolves its config on every trial.
    """
    return tuple(
        (f.name, f.metadata.get("knob"), f.metadata.get("nested"))
        for f in dataclasses.fields(cls)
        if f.metadata.get("knob") is not None
        or f.metadata.get("nested") is not None
    )


def result_fields(cls) -> Tuple[str, ...]:
    """Names of the result-affecting fields of a tagged settings class."""
    return tuple(
        f.name for f in dataclasses.fields(cls) if f.metadata.get("result")
    )
