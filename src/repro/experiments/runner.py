"""Shared experiment infrastructure.

All figure drivers pull their data through this module so that one expensive
artifact (a fault-injection campaign, a prepared module, a timing run) is
computed once and reused: Figures 2, 11, and 13 all come from the same
campaigns; Figure 10's static statistics come from the same prepared modules.

Trial counts honour the ``REPRO_TRIALS`` environment variable (paper: 1000
per benchmark; default here: 60, chosen so the full benchmark suite
regenerates every figure in minutes on a laptop — the margin-of-error helper
reports the resulting confidence).  ``REPRO_JOBS`` selects the worker count
for parallel campaign execution, and finished campaigns are persisted to the
on-disk cache (``REPRO_CACHE_DIR``, disable with ``REPRO_CACHE=0``) so
repeated figure/benchmark invocations skip recomputation entirely.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from .. import durable, settings
from ..settings import resolve as resolve_settings
from ..faultinjection.campaign import (
    CampaignConfig,
    PreparedWorkload,
    prepare,
    run_campaign,
)
from ..faultinjection.diskcache import CampaignCache, campaign_key
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

    Campaign results are additionally persisted through the on-disk
    :class:`CampaignCache`: before running trials the disk cache is checked
    (the key covers the printed module IR, scheme, config, trial count, and
    seed — see :mod:`repro.faultinjection.diskcache`), and fresh results are
    written back, so a re-invocation with unchanged code and settings loads
    every campaign instead of recomputing it.
    """

    def __init__(self, settings: Optional[ExperimentSettings] = None,
                 disk_cache: Optional[CampaignCache] = None) -> None:
        self.settings = resolve_settings(settings or ExperimentSettings())
        if disk_cache is None:
            disk_cache = CampaignCache(
                logger=ResilienceLogger(self.settings.obs_log)
            )
        self.disk_cache = disk_cache
        self._prepared: Dict[Tuple[str, str, bool], PreparedWorkload] = {}
        self._campaigns: Dict[Tuple[str, str, bool], CampaignResult] = {}
        self._runtimes: Dict[Tuple[str, str], float] = {}

    # -- prepared modules ----------------------------------------------------------

    def prepared(
        self, name: str, scheme: str, swap_train_test: bool = False
    ) -> PreparedWorkload:
        key = (name, scheme, swap_train_test)
        if key not in self._prepared:
            config = self.settings.campaign_config()
            config = replace(config, swap_train_test=swap_train_test)
            self._prepared[key] = prepare(get_workload(name), scheme, config)
        return self._prepared[key]

    # -- campaigns ---------------------------------------------------------------------

    def campaign(
        self, name: str, scheme: str, swap_train_test: bool = False
    ) -> CampaignResult:
        key = (name, scheme, swap_train_test)
        if key not in self._campaigns:
            config = self.settings.campaign_config()
            config = replace(config, swap_train_test=swap_train_test)
            prepared = self.prepared(name, scheme, swap_train_test)
            disk_key = campaign_key(prepared.module, name, scheme, config)
            entry = self.disk_cache.get_entry(disk_key)
            if entry is not None:
                result, meta = entry
                # Observability must not go dark on a cache hit: log the
                # provenance of the served result instead of the trials.
                self._emit_cache_hit(name, scheme, disk_key, meta)
            else:
                if self.settings.checkpoint_dir:
                    config = replace(
                        config,
                        checkpoint=os.path.join(
                            self.settings.checkpoint_dir,
                            f"checkpoint-{disk_key[:16]}.json",
                        ),
                    )
                result = run_campaign(
                    prepared.workload, scheme, config, prepared=prepared,
                    progress=sys.stderr if self.settings.progress else None,
                )
                self.disk_cache.put(disk_key, result)
            self._campaigns[key] = result
        return self._campaigns[key]

    def _emit_cache_hit(self, name: str, scheme: str, disk_key: str,
                        meta: Dict) -> None:
        obs_log = self.settings.obs_log
        if not obs_log:
            return
        with durable.AppendLog(obs_log) as log:
            log.append(
                obs_events.cache_hit_event(name, scheme, disk_key, meta)
            )

    # -- timing runs (Figure 12) -----------------------------------------------------------

    def runtime_cycles(self, name: str, scheme: str) -> float:
        """Estimated out-of-order cycles of one golden run under ``scheme``."""
        key = (name, scheme)
        if key not in self._runtimes:
            prepared = self.prepared(name, scheme)
            timing = TimingModel(self.settings.campaign.sim)
            interp = Interpreter(
                prepared.module,
                config=self.settings.campaign.sim,
                guard_mode="count",
                timing=timing,
            )
            prepared.workload.run(prepared.module, prepared.inputs, interpreter=interp)
            self._runtimes[key] = timing.cycles
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
