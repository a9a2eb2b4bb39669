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

**Flags.**  The CLIs take one flag per knob-tagged field from
:func:`add_flags` and build their settings with :func:`from_args`, so a
knob, its flag and its help text are declared once, here.

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
    "add_flags",
    "from_args",
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
    """One ``REPRO_*`` variable: its name, default, floor, help and flag.

    The default's type picks the parser: a bool is a switch, an int or a
    float is a number (clamped to ``floor``), and a string is a path or a
    name (``""`` is no path).  ``help`` describes the knob and is its
    flag's help text; ``flag`` is set only when the flag is not the
    field's name with dashes (:func:`add_flags`).
    """

    name: str
    default: Any = ""
    floor: Optional[float] = None
    help: str = ""
    flag: str = ""

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

FASTPATH = Knob(
    "REPRO_FASTPATH", True,
    help="simulate on the compiled fast path; off selects the reference "
         "interpreter, the differential oracle",
)
CACHE = Knob("REPRO_CACHE", True,
             help="read and write the on-disk campaign cache")
CACHE_DIR = Knob("REPRO_CACHE_DIR",
                 help="campaign cache directory (default ~/.cache/repro)")

JOBS = _WorkerCount(
    "REPRO_JOBS", 1,
    help="campaign worker processes, 0 for one per CPU; results are "
         "bit-identical for any value",
)
TRIALS = Knob(
    "REPRO_TRIALS", 60, floor=1,
    help="injection trials per benchmark and scheme; the paper used 1000",
)
FAULT_MODEL = Knob(
    "REPRO_FAULT_MODEL", "single_bit",
    help="fault model injected by every trial: single_bit is the paper's, "
         "mem_*, cache_line and stack_frame target the memory hierarchy, "
         "and chaos draws a model per trial; see docs/FAULT_MODEL.md",
)
OBS = Knob(
    "REPRO_OBS",
    help="append a JSONL trial event log to this file; inspect it with "
         "'python -m repro.obs report'",
)
TRACE = Knob(
    "REPRO_TRACE",
    help="write wall-clock spans as Chrome trace events to this file, "
         "started afresh each run; load it at ui.perfetto.dev or summarize "
         "it with 'python -m repro.obs report --trace'",
)
HEARTBEAT = Knob(
    "REPRO_HEARTBEAT",
    help="keep a live status JSON file here while the campaign runs; "
         "watch it with 'python -m repro.obs top'",
)
CHECKPOINT = Knob(
    "REPRO_CHECKPOINT",
    help="checkpoint completed trials to this file, so an interrupted "
         "campaign resumes from it",
)
CHECKPOINT_DIR = Knob(
    "REPRO_CHECKPOINT_DIR",
    help="directory of per-campaign checkpoint files, so an interrupted "
         "sweep resumes mid-campaign",
)
SNAPSHOT_EVERY = Knob(
    "REPRO_SNAPSHOT_EVERY", -1,
    help="golden-run snapshot cadence in cycles: 0 off, -1 automatic, N "
         "every N cycles; results are bit-identical for any value",
)
TRIAGE = Knob(
    "REPRO_TRIAGE", True,
    help="dead-flip and dead-region triage and the re-convergence cut-off; "
         "results are bit-identical either way",
)
BATCH = Knob(
    "REPRO_BATCH", 0, floor=0,
    help="batched lanes per sweep, 0 and 1 off; needs triage; results are "
         "bit-identical for any value",
)

RESILIENCE = Knob(
    "REPRO_RESILIENCE", True, flag="--resilience",
    help="recover from worker failures: rebuild the pool, then run the "
         "rest in-process; off re-raises a broken pool",
)
MAX_RETRIES = Knob(
    "REPRO_MAX_RETRIES", 2, floor=0,
    help="pool rebuilds after a worker dies before the rest runs "
         "in-process; 0 falls back at once",
)
CHECKPOINT_EVERY = Knob(
    "REPRO_CHECKPOINT_EVERY", 25, floor=1,
    help="completed trials between checkpoint writes",
)

SERVE_WORKERS = Knob("REPRO_SERVE_WORKERS", 2, floor=1,
                     help="concurrent service jobs")
SERVE_DEPTH = Knob(
    "REPRO_SERVE_DEPTH", 256, floor=1,
    help="admission bound on queued and running service jobs",
)
SERVE_RETRIES = Knob(
    "REPRO_SERVE_RETRIES", 3, floor=1, flag="--max-retries",
    help="failed attempts before a service job is quarantined",
)

KNOBS: Tuple[Knob, ...] = (
    FASTPATH, CACHE, CACHE_DIR, JOBS, TRIALS, FAULT_MODEL, OBS, TRACE,
    HEARTBEAT, CHECKPOINT, CHECKPOINT_DIR, SNAPSHOT_EVERY, TRIAGE, BATCH,
    RESILIENCE, MAX_RETRIES, CHECKPOINT_EVERY, SERVE_WORKERS, SERVE_DEPTH,
    SERVE_RETRIES,
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


# ---------------------------------------------------------------------------
# command-line flags
# ---------------------------------------------------------------------------


def add_flags(parser, cls) -> None:
    """Give an argparse ``parser`` one flag per knob-tagged field of ``cls``.

    Nested settings get theirs too.  Every flag defaults to ``None``, so an
    absent flag leaves its field to the environment (:func:`resolve`); a
    switch takes ``--x`` and ``--no-x``.
    """
    # Imported here, not at the top: every process that runs trials
    # imports this module, and only the CLIs parse arguments.
    import argparse

    for name, knob, nested in _tagged_fields(cls):
        if knob is None:
            add_flags(parser, nested)
            continue
        default = knob.default
        if isinstance(default, bool):
            kind = {"action": argparse.BooleanOptionalAction}
            shown = "on" if default else "off"
        else:
            kind = {"type": type(default)}
            shown = default or "off"
        parser.add_argument(
            _flag(name, knob), default=None, **kind,
            help=f"{knob.help} (default: {knob.name} or {shown})",
        )


def from_args(cls, args, **given):
    """``cls`` built from ``given`` and the flags of :func:`add_flags`.

    A flag left out stays ``None``, for :func:`resolve` to fill.
    """
    flagged = {}
    for name, knob, nested in _tagged_fields(cls):
        if knob is None:
            flagged[name] = from_args(nested, args)
        else:
            dest = _flag(name, knob)[2:].replace("-", "_")
            flagged[name] = getattr(args, dest)
    return cls(**given, **flagged)


def _flag(name: str, knob: Knob) -> str:
    return knob.flag or "--" + name.replace("_", "-")


def result_fields(cls) -> Tuple[str, ...]:
    """Names of the result-affecting fields of a tagged settings class."""
    return tuple(
        f.name for f in dataclasses.fields(cls) if f.metadata.get("result")
    )
