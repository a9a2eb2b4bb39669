"""On-disk campaign result cache.

Repeated figure/benchmark invocations re-run identical fault-injection
campaigns; since a campaign is a pure function of (module IR, scheme,
campaign config, trial count, seed), its result can be cached on disk and
reloaded bit-identically (see :meth:`CampaignResult.from_dict`).

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
* ``trials`` and ``seed``.

**Location.**  ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``.  Set
``REPRO_CACHE=0`` to disable reads and writes; delete the directory (or any
single ``campaign-*.json`` file) to invalidate manually.

Writes are atomic (:func:`repro.durable.write_json_atomic`), so concurrent
campaigns — including the workers of a parallel campaign on a shared
filesystem — can only ever observe complete entries.

**Integrity.**  Every entry embeds a sha256 of its canonical result payload,
verified on load.  A corrupt entry (unparsable JSON, checksum mismatch, or
an undecodable result) is *quarantined* — moved into a ``quarantine/``
subdirectory of the cache, preserving the evidence — counted in the
``cache.corrupt`` metric, and reported as a ``cache_corrupt`` event through
the cache's resilience logger; the campaign is then recomputed.  Entries are
never silently ignored and never trusted unverified (see
``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from .. import durable, settings
from ..ir.printer import module_to_str
from ..obs import trace as trace_mod
from ..obs.metrics import global_registry
from .campaign import CampaignConfig
from .outcomes import CampaignResult
from .resilience import ResilienceLogger

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CampaignCache",
    "cache_dir",
    "campaign_key",
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


def campaign_key(module, workload: str, scheme: str,
                 config: CampaignConfig) -> str:
    """sha256 key of one campaign (see module docstring for contents)."""
    return durable.canonical_sha256({
        "schema": CACHE_SCHEMA_VERSION,
        "ir": module_to_str(module),
        "workload": workload,
        "scheme": scheme,
        "config": _config_fingerprint(config),
        "trials": config.trials,
        "seed": config.seed,
    })


def _decode_entry(data) -> Tuple[CampaignResult, Dict]:
    """``(result, meta)`` of a parsed entry, its checksum verified.

    Legacy (unwrapped or checksum-less) entries decode with empty meta.
    """
    if not isinstance(data, dict):
        raise ValueError("cache entry is not a JSON object")
    if "result" not in data:
        return CampaignResult.from_dict(data), {}
    stored = (data.get("integrity") or {}).get("sha256")
    result = data["result"]
    if stored is not None and stored != durable.canonical_sha256(result):
        raise ValueError("cache entry checksum mismatch")
    return CampaignResult.from_dict(result), data.get("meta") or {}


class CampaignCache:
    """Directory of serialized :class:`CampaignResult`s keyed by sha256.

    Entries are stored wrapped as ``{"meta": {...}, "result": {...}}`` so a
    cache hit retains provenance: when it was created, by which cache schema,
    and for how many trials — surfaced as ``cache_hit`` events in the
    observability log instead of the hit being invisible.  Bare legacy
    entries (a plain result document) are still readable.
    """

    def __init__(self, root: Optional[Path] = None,
                 enabled: Optional[bool] = None,
                 logger: Optional[ResilienceLogger] = None) -> None:
        self.root = Path(root) if root is not None else cache_dir()
        self.enabled = settings.CACHE.read() if enabled is None else enabled
        #: reports quarantined entries (counters only unless the caller
        #: binds it to an obs log)
        self.logger = logger or ResilienceLogger()

    def _path(self, key: str) -> Path:
        return self.root / f"campaign-{key}.json"

    def get_entry(self, key: str) -> Optional[Tuple[CampaignResult, Dict]]:
        """Cached ``(result, creation meta)`` for ``key``, or None.

        Absent entries miss.  Corrupt or unreadable entries also miss — but
        loudly: the file is quarantined (moved to ``quarantine/`` inside the
        cache directory), the ``cache.corrupt`` counter is incremented, and
        a ``cache_corrupt`` resilience event is emitted, so the campaign is
        recomputed instead of the damage being silently swallowed.  Legacy
        (unwrapped or checksum-less) entries load with empty meta.
        """
        if not self.enabled:
            return None
        registry = global_registry()
        path = self._path(key)
        if not path.exists():
            registry.counter("cache.miss").inc()
            return None
        with trace_mod.current().span("cache.get", cat="cache", key=key[:16]):
            entry = durable.load_verified(
                path, _decode_entry, self.logger, "cache_corrupt",
                note=f"corrupt cache entry quarantined: {path.name}",
                key=key,
            )
            if entry is None:
                registry.counter("cache.corrupt").inc()
                registry.counter("cache.miss").inc()
                return None
            registry.counter("cache.hit").inc()
            return entry

    def get(self, key: str) -> Optional[CampaignResult]:
        """Cached result for ``key``, or None (corrupt entries miss)."""
        entry = self.get_entry(key)
        return entry[0] if entry is not None else None

    def put(self, key: str, result: CampaignResult) -> None:
        """Atomically persist ``result`` under ``key`` (best-effort)."""
        if not self.enabled:
            return
        now = time.time()
        result_doc = result.to_dict()
        document = {
            "meta": {
                "key": key,
                "cache_schema": CACHE_SCHEMA_VERSION,
                "created_unix": round(now, 3),
                "created_iso": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)
                ),
                "workload": result.workload,
                "scheme": result.scheme,
                "trials": result.num_trials,
            },
            "result": result_doc,
            "integrity": {"sha256": durable.canonical_sha256(result_doc)},
        }
        with trace_mod.current().span("cache.put", cat="cache", key=key[:16]):
            try:
                durable.write_json_atomic(self._path(key), document)
            except OSError:
                # A read-only or full cache directory must never fail a
                # campaign.
                return
            global_registry().counter("cache.write").inc()
