"""On-disk result cache: campaigns, Figure 12 cycles, §IV-D recovery rows.

Repeated figure/benchmark invocations recompute identical results; each is
a pure function of the protected module and its config, so it can be cached
on disk and reloaded bit-identically.  An entry holds one value of one
:class:`EntryKind`:

* ``campaign`` — a fault-injection campaign's :class:`CampaignResult`
  (:meth:`CampaignResult.from_dict` round-trips it bit-exactly);
* ``cycles`` — the estimated cycles of one Figure 12 timing run, stored as
  ``float.hex``;
* ``recovery`` — one row of the §IV-D recovery table
  (:mod:`repro.experiments.recovery_analysis` defines its codec).

**Key contents.**  The cache key is the sha256 of a canonical JSON document
containing:

* ``schema`` — :data:`CACHE_SCHEMA_VERSION`, bumped whenever trial semantics
  or the serialisation format change, so stale entries miss instead of
  poisoning results;
* ``ir`` — the printed IR of the *protected* module (so any change to a
  workload builder, transform pipeline, or protection knob that alters the
  emitted code changes the key);
* ``scheme`` and the workload name;
* ``config`` — every :class:`CampaignConfig` field tagged result-affecting
  (:func:`repro.settings.result_fields`; including the full nested
  ``SimConfig`` and ``ProtectionConfig``), with ``fault_model`` present only
  when it is not the default ``single_bit``.  Execution-only fields —
  ``jobs``, the telemetry paths, checkpointing, resilience, snapshot,
  triage and batch settings — cannot affect results and stay out;
* for a campaign, ``trials`` and ``seed`` (:func:`campaign_key`); for the
  other kinds, a ``kind`` tag plus the kind's own fields, e.g. a recovery
  row's seed, trial count and checkpoint interval (:func:`entry_key`).

**Location.**  ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``, one
``<kind>-<key>.json`` file per entry.  Set ``REPRO_CACHE=0`` to disable
reads and writes; delete the directory (or any single entry) to invalidate
manually.

Writes are atomic (:func:`repro.durable.write_json_atomic`), so concurrent
campaigns — including the workers of a parallel campaign on a shared
filesystem — can only ever observe complete entries.

**Integrity.**  Every entry embeds a sha256 of its canonical payload,
verified on load.  A corrupt entry (unparsable JSON, checksum mismatch, or
an undecodable payload) is *quarantined* — moved into a ``quarantine/``
subdirectory of the cache, preserving the evidence — counted in the
``cache.corrupt`` metric, and reported as a ``cache_corrupt`` event through
the cache's resilience logger; the value is then recomputed.  Entries are
never silently ignored; one written before entries carried a checksum
loads unverified (see ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from .. import durable, settings
from ..ir.printer import module_to_str
from ..obs import trace as trace_mod
from ..obs.metrics import global_registry
from .campaign import CampaignConfig
from .outcomes import CampaignResult
from .resilience import ResilienceLogger

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CAMPAIGN",
    "CYCLES",
    "CampaignCache",
    "EntryKind",
    "cache_dir",
    "campaign_key",
    "entry_key",
]

#: bump on any change to trial semantics, the campaign RNG, or the
#: serialisation format — old entries then miss instead of being replayed.
#: v2: trial records gained detector/provenance fields (detector_guard,
#: detector_kind, trap_kind, function) and entries carry creation metadata.
CACHE_SCHEMA_VERSION = 2

#: CampaignConfig fields that enter the cache key
_RESULT_FIELDS = settings.result_fields(CampaignConfig)


def cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return Path(settings.CACHE_DIR.read() or Path.home() / ".cache" / "repro")


def _config_fingerprint(config: CampaignConfig) -> dict:
    """JSON-safe view of the result-affecting config fields.

    ``trials`` and ``seed`` are kept in the fingerprint *and* surfaced as
    top-level key fields for human inspection.  ``fault_model`` is resolved
    (explicit value, else ``REPRO_FAULT_MODEL``, else the default) — callers
    may compute keys before ``run_campaign`` resolves the config, and the
    key must reflect the model that will actually run — but it is included
    only when it is not ``single_bit``, so every historical single-bit
    cache key stays valid.
    """
    config = settings.resolve(config)
    everything = dataclasses.asdict(config)
    fields = {name: everything[name] for name in _RESULT_FIELDS}
    model = fields.pop("fault_model")
    if model != settings.FAULT_MODEL.default:
        fields["fault_model"] = model
    if model in ("memory_word", "chaos"):
        # The occupancy-map rework changed what these two models compute
        # (occupied-word draws replace blind probing; chaos additionally
        # gained the memory-hierarchy models in its draw set), so their old
        # cached results are stale.  Single-bit keys are untouched.
        fields["memfaults"] = 1
    return fields


@dataclasses.dataclass(frozen=True)
class EntryKind:
    """One kind of cache entry: its name (the file prefix and the
    ``cache_hit`` event's ``kind``) and its JSON codec.  ``decode``
    raising ``ValueError``, ``KeyError`` or ``TypeError`` marks the entry
    corrupt."""

    name: str
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


CAMPAIGN = EntryKind(
    "campaign", CampaignResult.to_dict, CampaignResult.from_dict
)
#: Figure 12's estimated cycles of one timing run, bit-exact as float.hex
CYCLES = EntryKind("cycles", float.hex, float.fromhex)


def entry_key(kind: EntryKind, module, workload: str, scheme: str,
              config: CampaignConfig, **fields) -> str:
    """sha256 key of one ``kind`` value (see module docstring for contents);
    ``fields`` are the kind's own key fields.  A campaign key carries no
    ``kind`` tag, so every campaign cached before the other kinds existed
    stays warm."""
    document = {
        "schema": CACHE_SCHEMA_VERSION,
        "ir": module_to_str(module),
        "workload": workload,
        "scheme": scheme,
        "config": _config_fingerprint(config),
        **fields,
    }
    if kind is not CAMPAIGN:
        document["kind"] = kind.name
    return durable.canonical_sha256(document)


def campaign_key(module, workload: str, scheme: str,
                 config: CampaignConfig) -> str:
    """sha256 key of one campaign (see module docstring for contents)."""
    return entry_key(CAMPAIGN, module, workload, scheme, config,
                     trials=config.trials, seed=config.seed)


def _decode_entry(data, kind: EntryKind) -> Tuple[Any, Dict]:
    """``(value, meta)`` of a parsed entry, its checksum (if any) verified."""
    if not isinstance(data, dict):
        raise ValueError("cache entry is not a JSON object")
    stored = (data.get("integrity") or {}).get("sha256")
    result = data["result"]
    if stored is not None and stored != durable.canonical_sha256(result):
        raise ValueError("cache entry checksum mismatch")
    return kind.decode(result), data.get("meta") or {}


class CampaignCache:
    """Directory of cached values keyed by sha256, one file per entry.

    Entries are stored wrapped as ``{"meta": {...}, "result": {...}}`` so a
    cache hit retains provenance: when it was created, by which cache schema,
    and for which workload, scheme and trial count — surfaced as
    ``cache_hit`` events in the observability log instead of the hit being
    invisible.
    """

    def __init__(self, root: Optional[Path] = None,
                 enabled: Optional[bool] = None,
                 logger: Optional[ResilienceLogger] = None) -> None:
        self.root = Path(root) if root is not None else cache_dir()
        self.enabled = settings.CACHE.read() if enabled is None else enabled
        #: reports quarantined entries (counters only unless the caller
        #: binds it to an obs log)
        self.logger = logger or ResilienceLogger()

    def _path(self, key: str, kind: EntryKind = CAMPAIGN) -> Path:
        return self.root / f"{kind.name}-{key}.json"

    def get_entry(self, key: str, kind: EntryKind = CAMPAIGN
                  ) -> Optional[Tuple[Any, Dict]]:
        """Cached ``(value, creation meta)`` for ``key``, or None.

        Absent entries miss.  Corrupt or unreadable entries also miss — but
        loudly: the file is quarantined (moved to ``quarantine/`` inside the
        cache directory), the ``cache.corrupt`` counter is incremented, and
        a ``cache_corrupt`` resilience event is emitted, so the value is
        recomputed instead of the damage being silently swallowed.
        """
        if not self.enabled:
            return None
        registry = global_registry()
        path = self._path(key, kind)
        if not path.exists():
            registry.counter("cache.miss").inc()
            return None
        with trace_mod.current().span("cache.get", cat="cache", key=key[:16]):
            entry = durable.load_verified(
                path, lambda data: _decode_entry(data, kind), self.logger,
                "cache_corrupt",
                note=f"corrupt cache entry quarantined: {path.name}",
                key=key,
            )
            if entry is None:
                registry.counter("cache.corrupt").inc()
                registry.counter("cache.miss").inc()
                return None
            registry.counter("cache.hit").inc()
            return entry

    def put(self, key: str, value, kind: EntryKind = CAMPAIGN,
            **meta) -> None:
        """Atomically persist ``value`` under ``key`` (best-effort).

        ``meta`` names what the value belongs to (``workload``, ``scheme``,
        ``trials``) for the entry's ``cache_hit`` events; a campaign result
        names itself.
        """
        if not self.enabled:
            return
        if kind is CAMPAIGN:
            meta = {"workload": value.workload, "scheme": value.scheme,
                    "trials": value.num_trials}
        now = time.time()
        payload = kind.encode(value)
        document = {
            "meta": {
                "key": key,
                "cache_schema": CACHE_SCHEMA_VERSION,
                "created_unix": round(now, 3),
                "created_iso": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)
                ),
                **meta,
            },
            "result": payload,
            "integrity": {"sha256": durable.canonical_sha256(payload)},
        }
        with trace_mod.current().span("cache.put", cat="cache", key=key[:16]):
            try:
                durable.write_json_atomic(self._path(key, kind), document)
            except OSError:
                # A read-only or full cache directory must never fail a
                # campaign.
                return
            global_registry().counter("cache.write").inc()
