"""Structured campaign trial event log (JSONL).

One line per event, canonically encoded (sorted keys, no whitespace), so the
log of a deterministic campaign is itself deterministic: no record reads the
wall clock, and a ``jobs=N`` campaign produces a **byte-identical** log to
the serial run — pool workers hand their trials back to the campaign
parent, which writes every trial event in plan order.  A trial's wall time
lives only in its ``--trace`` ``trial`` span, whose ``(cycle, bit, seed)``
arguments join it to the trial's record.

Event kinds (every record carries ``"v": SCHEMA_VERSION``):

* ``campaign_begin`` — campaign identity and golden-run metadata;
* ``trial`` — one injection trial: the injection site (cycle, bit, register,
  function), whether the flip landed on a live value, the outcome, the
  detecting check (guard id/kind or hardware trap kind), detection latency
  in cycles and fidelity score;
* ``campaign_end`` — final outcome tallies (must match the
  :class:`~repro.faultinjection.outcomes.CampaignResult`);
* ``cache_hit`` — a campaign, a Figure 12 cycle count or a §IV-D recovery
  row was served from the on-disk cache; carries the cache key, the entry's
  creation metadata and, for the last two, a ``kind`` field (``cycles`` or
  ``recovery``), so provenance survives even when nothing is re-executed;
* ``resilience`` — one recovery action of the campaign resilience layer
  (checkpoint write/load, chunk retry, serial fallback, quarantine — the
  ``kind`` field says which, see :mod:`repro.faultinjection.resilience`).
  Written to a *sidecar* log (``<log>.resilience``, see
  :func:`resilience_log_path`) rather than the main trial log: recovery
  actions only occur on failures, so keeping them out of the main log is
  what preserves its byte-identity guarantee;
* ``prefix_sharing`` — per-campaign shared-prefix execution totals
  (:data:`PREFIX_STATS`: snapshot restores, triage verdicts, re-convergence
  cut-offs, see :mod:`repro.sim.snapshot`);
* ``occupancy`` — per-structure residency of a memory-model campaign's
  golden run, the denominator side of the AVF report;
* ``batched`` — per-campaign batched lane-sweep totals (see
  :mod:`repro.sim.batched`).

The last three are written to the sidecar log too: the main trial log must
stay byte-identical with snapshots, triage, the occupancy pass and batching
on or off.

Logs are written and read through :mod:`repro.durable`'s one append-only
log (:class:`~repro.durable.AppendLog`, :func:`~repro.durable.read_log`),
which the service journal shares.  Reading is *corrupt-line tolerant*: a
garbled line is counted and skipped, never fatal, and a torn last line (a
campaign killed mid-write) is left out.  Appending heals the log first: the
torn line is dropped before the next record is written (the trial log and
every sidecar append alike), so one crash costs at most the record it
tore.  Unknown schema versions are surfaced to the caller via the ``v``
field rather than rejected — the reader is forward-compatible by
construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import durable

__all__ = [
    "SCHEMA_VERSION",
    "PREFIX_STATS",
    "batched_event",
    "cache_hit_event",
    "campaign_begin_event",
    "campaign_end_event",
    "append_sidecar_event",
    "prefix_sharing_event",
    "read_events",
    "resilience_event",
    "resilience_log_path",
    "trial_event",
]

#: bump on any change to event field names or semantics
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# event constructors
# ---------------------------------------------------------------------------


def campaign_begin_event(result) -> Dict:
    """Header record from a fresh :class:`CampaignResult` shell.

    Deliberately excludes ``jobs`` and timestamps: the header must be
    byte-identical across worker counts and runs.  ``fault_model`` is only
    present for non-default models, so single-bit logs are byte-identical
    to those written before the fault-model hierarchy existed.
    """
    event = {
        "event": "campaign_begin",
        "v": SCHEMA_VERSION,
        "workload": result.workload,
        "scheme": result.scheme,
        "golden_instructions": result.golden_instructions,
        "golden_guard_failures": result.golden_guard_failures,
        "golden_guard_evaluations": result.golden_guard_evaluations,
    }
    model = getattr(result, "fault_model", "single_bit")
    if model != "single_bit":
        event["fault_model"] = model
    return event


def trial_event(index: int, plan, trial) -> Dict:
    """One trial record from an :class:`InjectionPlan` + :class:`TrialResult`.

    A pure function of the plan and the trial, so the log is deterministic.
    ``fault_model`` is only present for non-default models (see
    :func:`campaign_begin_event`).
    """
    event = {
        "event": "trial",
        "v": SCHEMA_VERSION,
        "i": index,
        "cycle": plan.cycle,
        "bit": plan.bit,
        "seed": plan.seed,
        "outcome": trial.outcome.value,
        "landed": trial.landed,
        "live": trial.was_live,
        "register": trial.value_name,
        "function": trial.function,
        "event_cycle": trial.event_cycle,
        "latency": trial.detection_latency,
        "check": trial.detector_guard,
        "check_kind": trial.detector_kind,
        "trap": trial.trap_kind,
        "fidelity": trial.fidelity_score,
        "sdc": trial.is_sdc,
        "asdc": trial.is_asdc,
        "magnitude": trial.change_magnitude,
    }
    model = getattr(plan, "model", "single_bit")
    if model != "single_bit":
        event["fault_model"] = model
    return event


def campaign_end_event(result) -> Dict:
    """Footer record: final tallies of the completed campaign."""
    return {
        "event": "campaign_end",
        "v": SCHEMA_VERSION,
        "workload": result.workload,
        "scheme": result.scheme,
        "trials": result.num_trials,
        "counts": result.counts(),
    }


def cache_hit_event(workload: str, scheme: str, key: str,
                    meta: Optional[Dict] = None,
                    kind: str = "campaign") -> Dict:
    """A value was served from the on-disk cache.

    ``meta`` is the cache entry's creation metadata (creation time, trial
    count, cache schema), so a log retains provenance for results that were
    never recomputed.  ``kind`` names what was served (see
    :mod:`repro.faultinjection.diskcache`); a campaign hit carries no
    ``kind`` field, as before the other kinds existed.
    """
    event = {
        "event": "cache_hit",
        "v": SCHEMA_VERSION,
        "workload": workload,
        "scheme": scheme,
        "key": key,
        "meta": meta or {},
    }
    if kind != "campaign":
        event["kind"] = kind
    return event


def resilience_event(kind: str, **fields) -> Dict:
    """One recovery action of the resilience layer.

    ``kind`` is one of: ``checkpoint_write``, ``checkpoint_load``,
    ``checkpoint_clear``, ``checkpoint_corrupt``, ``worker_failure``,
    ``chunk_retry``, ``serial_fallback``, ``cache_corrupt``.  The remaining
    fields are kind-specific and deliberately timestamp-free where the
    action itself is deterministic.
    """
    event = {"event": "resilience", "v": SCHEMA_VERSION, "kind": kind}
    event.update(fields)
    return event


#: the shared-prefix stats of one campaign, each with its registry counter:
#: snapshot restores and the replay cycles they skipped, trials triaged
#: dead (a register flip, then a memory hit), and trials cut off at
#: re-convergence and the golden cycles that skipped
PREFIX_STATS: Tuple[Tuple[str, str], ...] = (
    ("restores", "snapshot.restores"),
    ("replay_cycles_saved", "snapshot.replay_cycles_saved"),
    ("triaged_masked", "campaign.triaged_masked"),
    ("triaged_dead_memory", "campaign.triaged_dead_memory"),
    ("converged", "campaign.converged"),
    ("converged_cycles_saved", "campaign.converged_cycles_saved"),
)


def prefix_sharing_event(
    workload: str, scheme: str, stats: Dict[str, int]
) -> Dict:
    """Shared-prefix execution totals (:data:`PREFIX_STATS`) of one campaign.

    Pure functions of the campaign configuration + plans, hence
    timestamp-free.
    """
    event = {
        "event": "prefix_sharing",
        "v": SCHEMA_VERSION,
        "workload": workload,
        "scheme": scheme,
    }
    event.update((name, stats.get(name, 0)) for name, _ in PREFIX_STATS)
    return event


def batched_event(
    workload: str,
    scheme: str,
    batches: int = 0,
    lanes: int = 0,
    masked: int = 0,
    diverged: int = 0,
    vector_cycles: int = 0,
    fallbacks: int = 0,
    divergence: Optional[Dict[str, int]] = None,
) -> Dict:
    """Batched lane-sweep execution totals for one campaign.

    ``batches`` counts sweeps, ``lanes`` the trials they carried, ``masked``
    the lanes whose verdict was decided in-sweep, ``diverged`` the lanes
    peeled to the scalar fastpath (``divergence`` breaks them down by
    reason), ``vector_cycles`` the golden cycles executed in lock-step, and
    ``fallbacks`` the sweeps that aborted and peeled everything.  Lives in
    the sidecar, not the main log: trial events must stay byte-identical
    with batching on or off (see :mod:`repro.sim.batched`).
    """
    return {
        "event": "batched",
        "v": SCHEMA_VERSION,
        "workload": workload,
        "scheme": scheme,
        "batches": batches,
        "lanes": lanes,
        "masked": masked,
        "diverged": diverged,
        "vector_cycles": vector_cycles,
        "fallbacks": fallbacks,
        "divergence": dict(sorted((divergence or {}).items())),
    }


def occupancy_event(
    workload: str, scheme: str, structures: List[Dict]
) -> Dict:
    """Per-structure occupancy residency rows of one campaign's golden run.

    ``structures`` comes from ``OccupancyMap.residency()``: one row per
    memory structure (``segment:<name>``, ``stack``, ``cache``,
    ``regfile``) with its occupied/total counts and residency fraction —
    the denominator side of the AVF report.  Lives in the sidecar, not the
    main log, so trial logs stay byte-identical with the pass on or off.
    """
    return {
        "event": "occupancy",
        "v": SCHEMA_VERSION,
        "workload": workload,
        "scheme": scheme,
        "structures": structures,
    }


def resilience_log_path(log_path: str) -> str:
    """Sidecar JSONL collecting the resilience events next to ``log_path``."""
    return f"{log_path}.resilience"


def append_sidecar_event(log_path: str, event: Dict) -> None:
    """Append one event to the ``<log>.resilience`` sidecar (best effort).

    Shared by the resilience layer and the shared-prefix stats: everything
    that must stay out of the byte-identical main log lands here.
    """
    try:
        with durable.AppendLog(resilience_log_path(log_path)) as log:
            log.append(event)
    except OSError:  # pragma: no cover - diagnostics must not kill campaigns
        pass


def read_events(path) -> Tuple[List[Dict], int]:
    """Parse one JSONL log; returns ``(events, skipped_line_count)``.

    Corrupt lines (stray text, records without an ``event`` field) are
    skipped and counted, and a torn last line is left out (see
    :func:`repro.durable.read_log`): a log of an interrupted campaign stays
    readable.
    """
    records, skipped, _ = durable.read_log(path)
    events = [record for record in records if "event" in record]
    return events, skipped + len(records) - len(events)
