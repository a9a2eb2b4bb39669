"""Shared experiment infrastructure.

All figure drivers pull their data through this module so that one expensive
artifact (a fault-injection campaign, a prepared module, a timing run) is
computed once and reused: Figures 2, 11, and 13 all come from the same
campaigns; Figure 10's static statistics come from the same prepared modules.

Trial counts honour the ``REPRO_TRIALS`` environment variable (paper: 1000
per benchmark; default here: 60, chosen so the full benchmark suite
regenerates every figure in minutes on a laptop — the margin-of-error helper
reports the resulting confidence).  ``REPRO_JOBS`` selects the worker count
for parallel campaign execution.  Finished campaigns, Figure 12's cycle
counts and the §IV-D recovery rows are persisted to the on-disk cache
(``REPRO_CACHE_DIR``, disable with ``REPRO_CACHE=0``), so a repeated
invocation recomputes none of them and runs no golden run for them: it
only builds and protects the modules their keys need.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple

from .. import durable, settings
from ..settings import resolve as resolve_settings
from ..faultinjection.campaign import (
    CampaignConfig,
    PreparedModule,
    PreparedWorkload,
    prepare,
    prepare_module,
    run_campaign,
)
from ..faultinjection.diskcache import (
    CAMPAIGN,
    CYCLES,
    CampaignCache,
    EntryKind,
    campaign_key,
    entry_key,
)
from ..faultinjection.outcomes import CampaignResult
from ..faultinjection.resilience import ResilienceLogger, ResiliencePolicy
from ..obs import events as obs_events
from ..sim.interpreter import Interpreter
from ..sim.timing import TimingModel
from ..workloads.registry import BENCHMARK_NAMES, get_workload

@dataclass
class ExperimentSettings:
    """Scope and scale of an experiment run.

    A field left ``None`` takes its ``REPRO_*`` twin, else its default;
    :class:`ExperimentCache` resolves the settings once
    (:func:`repro.settings.resolve`).
    """

    #: injection trials per (workload, scheme) campaign
    trials: Optional[int] = field(
        default=None, metadata=settings.tags(settings.TRIALS)
    )
    seed: int = 2014
    workloads: Tuple[str, ...] = tuple(BENCHMARK_NAMES)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    #: campaign worker processes (0 = one per CPU)
    jobs: Optional[int] = field(
        default=None, metadata=settings.tags(settings.JOBS)
    )
    #: print a rate-limited live progress line per campaign (stderr)
    progress: bool = False
    #: structured JSONL trial event log appended to by every campaign
    #: ("" = off)
    obs_log: Optional[str] = field(
        default=None, metadata=settings.tags(settings.OBS)
    )
    #: directory for per-campaign checkpoint files, so an interrupted
    #: experiment sweep resumes mid-campaign on re-invocation ("" = off).
    #: Each campaign checkpoints to ``checkpoint-<disk_key[:16]>.json``
    #: inside it — keyed like the disk cache, so a stale checkpoint can
    #: never leak between configurations.
    checkpoint_dir: Optional[str] = field(
        default=None, metadata=settings.tags(settings.CHECKPOINT_DIR)
    )
    #: recovery policy threaded into every campaign
    resilience: Optional[ResiliencePolicy] = field(
        default=None, metadata=settings.tags(nested=ResiliencePolicy)
    )
    #: fault model threaded into every campaign
    fault_model: Optional[str] = field(
        default=None, metadata=settings.tags(settings.FAULT_MODEL)
    )

    def campaign_config(self) -> CampaignConfig:
        """The resolved config every campaign of this run shares."""
        return resolve_settings(replace(
            self.campaign, trials=self.trials, seed=self.seed, jobs=self.jobs,
            obs_log=self.obs_log, resilience=self.resilience,
            fault_model=self.fault_model,
        ))


class ExperimentCache:
    """Memoises prepared workloads, campaigns, and timing runs.

    Campaign results, Figure 12's cycle counts and the §IV-D recovery rows
    are additionally persisted through the on-disk :class:`CampaignCache`
    (:meth:`stored`): each value is looked up before it is computed, and a
    fresh value is written back, so a re-invocation with unchanged code and
    settings loads every one of them instead of recomputing it.  Every key
    covers the printed module IR, the workload, and the result-affecting
    config (see :mod:`repro.faultinjection.diskcache`).

    :func:`~repro.faultinjection.campaign.prepare` runs in two stages, and
    each is memoised per (workload, scheme, swap): the module stage
    (:meth:`prepared_module`: build, value profile, transform) gives every
    key, and the golden stage (:meth:`prepared`: golden run, capture) runs
    only when trials run, so a cache hit never pays for it.
    """

    def __init__(self, settings: Optional[ExperimentSettings] = None,
                 disk_cache: Optional[CampaignCache] = None) -> None:
        self.settings = resolve_settings(settings or ExperimentSettings())
        if disk_cache is None:
            disk_cache = CampaignCache(
                logger=ResilienceLogger(self.settings.obs_log)
            )
        self.disk_cache = disk_cache
        self._modules: Dict[Tuple[str, str, bool], PreparedModule] = {}
        self._prepared: Dict[Tuple[str, str, bool], PreparedWorkload] = {}
        self._campaigns: Dict[Tuple[str, str, bool], CampaignResult] = {}
        self._runtimes: Dict[Tuple[str, str], float] = {}

    def _config(self, swap_train_test: bool) -> CampaignConfig:
        return replace(
            self.settings.campaign_config(), swap_train_test=swap_train_test
        )

    # -- prepared modules ----------------------------------------------------------

    def prepared_module(
        self, name: str, scheme: str, swap_train_test: bool = False
    ) -> PreparedModule:
        """The module stage of ``prepare()``: no golden run."""
        key = (name, scheme, swap_train_test)
        if key not in self._modules:
            self._modules[key] = prepare_module(
                get_workload(name), scheme, self._config(swap_train_test)
            )
        return self._modules[key]

    def prepared(
        self, name: str, scheme: str, swap_train_test: bool = False
    ) -> PreparedWorkload:
        """The module stage plus the golden stage: ready for trials."""
        key = (name, scheme, swap_train_test)
        if key not in self._prepared:
            stage = self.prepared_module(*key)
            self._prepared[key] = prepare(
                stage.workload, scheme, self._config(swap_train_test), stage
            )
        return self._prepared[key]

    def golden(self, name: str, scheme: str) -> PreparedWorkload:
        """The workload this run prepared, else a golden run with no capture
        pass: enough for the golden run's counts, not for trials."""
        stage = self.prepared_module(name, scheme)
        return self._prepared.get((name, scheme, False)) or prepare(
            stage.workload, scheme, self._config(False), stage, capture=False
        )

    # -- the disk cache ----------------------------------------------------------

    def stored(self, kind: EntryKind, key: str, name: str, scheme: str,
               compute: Callable[[], Any], **meta) -> Any:
        """The ``kind`` value of ``name``/``scheme`` under ``key`` in the
        disk cache, else ``compute()``'s, which is then written back with
        ``meta`` (e.g. ``trials``, see :meth:`CampaignCache.put`)."""
        entry = self.disk_cache.get_entry(key, kind)
        if entry is not None:
            value, entry_meta = entry
            # Observability must not go dark on a cache hit: log the
            # provenance of the served value instead of its computation.
            if self.settings.obs_log:
                with durable.AppendLog(self.settings.obs_log) as log:
                    log.append(obs_events.cache_hit_event(
                        name, scheme, key, entry_meta, kind.name
                    ))
            return value
        value = compute()
        self.disk_cache.put(key, value, kind, workload=name, scheme=scheme,
                            **meta)
        return value

    # -- campaigns ---------------------------------------------------------------------

    def campaign(
        self, name: str, scheme: str, swap_train_test: bool = False
    ) -> CampaignResult:
        key = (name, scheme, swap_train_test)
        if key not in self._campaigns:
            config = self._config(swap_train_test)
            disk_key = campaign_key(
                self.prepared_module(*key).module, name, scheme, config
            )
            if self.settings.checkpoint_dir:
                config = replace(
                    config,
                    checkpoint=os.path.join(
                        self.settings.checkpoint_dir,
                        f"checkpoint-{disk_key[:16]}.json",
                    ),
                )

            def run() -> CampaignResult:
                prepared = self.prepared(*key)
                return run_campaign(
                    prepared.workload, scheme, config, prepared=prepared,
                    progress=sys.stderr if self.settings.progress else None,
                )

            self._campaigns[key] = self.stored(
                CAMPAIGN, disk_key, name, scheme, run
            )
        return self._campaigns[key]

    # -- timing runs (Figure 12) -----------------------------------------------------------

    def runtime_cycles(self, name: str, scheme: str) -> float:
        """Estimated out-of-order cycles of one golden run under ``scheme``."""
        key = (name, scheme)
        if key not in self._runtimes:
            stage = self.prepared_module(name, scheme)
            # The config the timing run reads its core and caches from.
            config = self.settings.campaign

            def run() -> float:
                timing = TimingModel(config.sim)
                interp = Interpreter(
                    stage.module, config=config.sim, guard_mode="count",
                    timing=timing,
                )
                stage.workload.run(
                    stage.module, stage.inputs, interpreter=interp
                )
                return timing.cycles

            self._runtimes[key] = self.stored(
                CYCLES, entry_key(CYCLES, stage.module, name, scheme, config),
                name, scheme, run,
            )
        return self._runtimes[key]

    def overhead(self, name: str, scheme: str) -> float:
        """Runtime overhead of ``scheme`` relative to the original binary."""
        base = self.runtime_cycles(name, "original")
        return self.runtime_cycles(name, scheme) / base - 1.0


_GLOBAL_CACHE: Optional[ExperimentCache] = None


def global_cache() -> ExperimentCache:
    """Process-wide cache shared by all figure drivers and benchmarks."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = ExperimentCache()
    return _GLOBAL_CACHE


def reset_global_cache(settings: Optional[ExperimentSettings] = None) -> ExperimentCache:
    """Replace the global cache (used by tests to control scale)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = ExperimentCache(settings)
    return _GLOBAL_CACHE
