"""Trial execution for fault-injection campaigns, in-process or pooled.

Design (see ``docs/PERFORMANCE.md``):

* **Determinism.** All randomness is consumed *before* fan-out:
  :func:`~repro.faultinjection.campaign.draw_plans` draws every trial's
  (cycle, bit, seed) serially from the hash-seeded campaign RNG, and each
  trial runs under its own private :class:`random.Random` seeded from the
  plan.  Workers therefore share no RNG state, and a ``jobs=N`` campaign is
  bit-identical to ``jobs=1``.

* **One trial loop, one way back.** :func:`_execute_chunk` runs a chunk of
  ``(index, plan)`` trials, scalar or batched, and returns a
  :class:`ChunkResult`; it writes no file.  Serial campaigns call it
  in-process; pool workers call it through :func:`_run_chunk`, which adds
  the worker's metric-counter increments.  The pickled chunk result is the
  only way trials and counters reach the parent, whose campaign sink
  stores trials by plan index and writes the obs log in plan order — so
  the log is byte-identical for any ``jobs``.  A worker appends its spans
  to the trace file itself (:mod:`repro.obs.trace`).

* **Per-worker prepared workloads.** A :class:`PreparedWorkload` holds a live
  IR module, memoised liveness/compiled-code caches, and numpy goldens —
  objects whose pickled round-trip would break identity-based caches (IR
  types are interned singletons).  Workers instead *rebuild* it from the
  (workload name, scheme, config) key, memoised per process so the cost is
  paid once per worker, not once per trial.  ``prepare`` is deterministic, so
  the rebuilt workload is equivalent to the parent's.  On ``fork`` platforms
  the parent additionally publishes its prepared workload in a module global
  before creating the pool; inheriting children detect the matching key and
  skip the rebuild entirely.

* **Chunked dispatch.** Trials are submitted as index-tagged chunks (a few
  dozen trials each) to amortise task-dispatch overhead; completed chunks
  stream back to the sink in completion order.

* **Worker-failure recovery** (see ``docs/RESILIENCE.md``).  A SIGKILLed or
  OOM-killed worker breaks the whole :class:`ProcessPoolExecutor`; instead
  of aborting the campaign, the chunks that never reported back are
  resubmitted to a fresh pool with exponential backoff (deterministically
  jittered per campaign, so fleets of campaigns under ``repro.serve`` never
  retry in lockstep), and once the retry budget is exhausted the residual
  trials degrade to in-process serial execution.  Trial plans are
  pre-drawn, so a retried or serially-executed chunk computes bit-identical
  results — recovery is invisible in the campaign outcome and visible only
  in the resilience audit log.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..obs import trace as trace_mod
from ..obs.metrics import enable_global, global_registry
from ..sim.faults import InjectionPlan
from . import campaign as campaign_mod
from . import resilience as resilience_mod
from .campaign import (
    CampaignConfig,
    PreparedWorkload,
    batched_enabled,
    prepare,
    run_batch_trials,
)
from .outcomes import TrialResult

__all__ = ["ChunkResult", "run_trials_parallel"]


class ChunkResult(NamedTuple):
    """Everything one executed chunk of trials hands to the campaign sink."""

    #: ``(index, trial)`` per trial, in completion order
    completions: List[Tuple[int, TrialResult]]
    #: shared-prefix and batched-lane counts to fold into campaign totals
    stats: Optional[Dict[str, int]] = None
    #: metric-counter increments made in a pool worker — deltas, not
    #: totals: a forked worker starts with a copy of the parent's counts
    counters: Optional[Dict[str, int]] = None


def _prepared_key(name: str, scheme: str, config: CampaignConfig) -> Tuple:
    """Memoisation key for a worker-side prepared workload.

    ``repr`` of the (nested) config dataclasses is deterministic and covers
    every field that influences preparation; ``jobs`` cannot affect the
    prepared module, but including it is harmless for a per-process memo.
    """
    return (name, scheme, repr(config))


#: (key, PreparedWorkload) published by the parent just before pool creation;
#: inherited by fork-started workers, ignored (None) under spawn.
_FORK_PREPARED: Optional[Tuple[Tuple, PreparedWorkload]] = None

#: per-process rebuilt workloads (spawn start method, or key mismatch)
_PREPARED_MEMO = {}


def _worker_prepared(
    name: str, scheme: str, config: CampaignConfig
) -> PreparedWorkload:
    key = _prepared_key(name, scheme, config)
    if _FORK_PREPARED is not None and _FORK_PREPARED[0] == key:
        return _FORK_PREPARED[1]
    found = _PREPARED_MEMO.get(key)
    if found is None:
        from ..workloads.registry import get_workload

        found = prepare(get_workload(name), scheme, config)
        campaign_mod._ensure_compiled(found)
        _PREPARED_MEMO[key] = found
    return found


#: (name, scheme, config) for the campaign this worker serves — shipped once
#: per worker via the pool initializer instead of once per chunk, so chunk
#: submissions pickle only the (index, plan) pairs.
_WORKER_CAMPAIGN: Optional[Tuple[str, str, CampaignConfig]] = None


def _init_worker(name: str, scheme: str, config: CampaignConfig,
                 metrics_enabled: bool) -> None:
    global _WORKER_CAMPAIGN
    _WORKER_CAMPAIGN = (name, scheme, config)
    # A spawned worker would read REPRO_OBS afresh; follow the parent.
    enable_global(metrics_enabled)


def _execute_chunk(
    prepared: PreparedWorkload,
    config: CampaignConfig,
    chunk: Sequence[Tuple[int, InjectionPlan]],
) -> ChunkResult:
    """Run one chunk of ``(index, plan)`` trials — the campaign's only
    trial loop, shared by serial campaigns, pool workers
    (:func:`_run_chunk`) and the parent's serial fallback.

    Each scalar trial is one :func:`~.campaign.run_trial` call, looked up on
    the campaign module at every call so a wrapper installed there (the
    performance ledger counts and times trials that way) sees every trial.
    With batched lanes on, a chunk of several trials sweeps
    ``config.batch`` lanes at a time instead.  A lane's verdict never
    depends on which lanes share its sweep, so chunking is invisible in the
    trials.
    """
    completions: List[Tuple[int, TrialResult]] = []
    stats: Dict[str, int] = {}
    if batched_enabled(config) and len(chunk) > 1:
        size = config.batch
        for at in range(0, len(chunk), size):
            completions.extend(run_batch_trials(
                prepared, chunk[at:at + size], config, stats=stats
            ))
        return ChunkResult(completions, stats)
    for index, plan in chunk:
        completions.append((index, campaign_mod.run_trial(
            prepared, plan.cycle, plan.bit, plan.seed, config,
            stats=stats, model=plan.model,
        )))
    return ChunkResult(completions, stats)


def _run_chunk(chunk: Sequence[Tuple[int, InjectionPlan]]) -> ChunkResult:
    """Worker entry: run one chunk under a ``chunk`` span.

    The result also carries the counter increments this worker made, which
    the parent folds into its own registry.  Closing the span appends the
    worker's spans to the trace file.
    """
    name, scheme, config = _WORKER_CAMPAIGN  # type: ignore[misc]
    prepared = _worker_prepared(name, scheme, config)
    registry = global_registry()
    before = registry.snapshot()
    with trace_mod.activate(config.trace).span(
        "chunk", cat="chunk", first=chunk[0][0], size=len(chunk)
    ):
        result = _execute_chunk(prepared, config, chunk)
    # A counter first created in this chunk travels even at zero, as it
    # would exist in-process.
    counters = {
        key: value - before.get(key, 0)
        for key, value in registry.snapshot().items()
        if value != before.get(key)
    }
    return result._replace(counters=counters)


def _chunk_size(n_trials: int, jobs: int) -> int:
    """About three chunks per worker: keeps dispatch/IPC overhead low while
    letting faster workers steal from slower ones."""
    return max(1, min(32, -(-n_trials // (jobs * 3))))


def run_trials_parallel(
    prepared: PreparedWorkload,
    items: Sequence[Tuple[int, InjectionPlan]],
    config: CampaignConfig,
    sink: Callable[[ChunkResult], None],
    rlog: Optional[resilience_mod.ResilienceLogger] = None,
) -> None:
    """Execute ``(index, plan)`` trials across ``config.jobs`` worker
    processes.

    ``config`` must be resolved (:func:`repro.settings.resolve`).  Each
    finished chunk's :class:`ChunkResult` goes to ``sink`` in completion
    order — chunks the pool ran and chunks the serial fallback ran alike;
    ordering trials by plan index is the sink's job.

    A broken pool (killed worker) is handled per ``config.resilience``:
    lost chunks are resubmitted to a fresh pool with exponential backoff,
    then degrade to in-process serial execution once the retry budget is
    spent.  With resilience disabled the :class:`BrokenProcessPool` error
    propagates, as it did before the resilience layer existed.
    """
    global _FORK_PREPARED
    jobs = config.jobs
    size = _chunk_size(len(items), jobs)
    pending: Dict[int, Sequence[Tuple[int, InjectionPlan]]] = {
        ordinal: items[i:i + size]
        for ordinal, i in enumerate(range(0, len(items), size))
    }
    name, scheme = prepared.workload.name, prepared.scheme
    policy = config.resilience
    rlog = rlog or resilience_mod.ResilienceLogger(config.obs_log)

    def run_serial_fallback() -> None:
        trace_mod.current().instant(
            "serial_fallback", cat="resilience", chunks=len(pending)
        )
        rlog.emit(
            "serial_fallback",
            note=(f"worker pool lost; running "
                  f"{sum(len(c) for c in pending.values())} residual "
                  f"trials in-process"),
            chunks=len(pending),
            trials=sum(len(c) for c in pending.values()),
        )
        for ordinal in sorted(pending):
            sink(_execute_chunk(prepared, config, pending[ordinal]))
        pending.clear()

    attempt = 0
    last_error: Optional[BaseException] = None
    _FORK_PREPARED = (_prepared_key(name, scheme, config), prepared)
    try:
        while pending:
            if attempt > 0:
                if not policy.enabled:
                    raise last_error
                if attempt > policy.max_retries:
                    run_serial_fallback()
                    break
                # Jitter is seeded from the campaign's identity so many
                # campaigns losing workers together (one bad host under the
                # service's pools) retry de-synchronized, while any single
                # campaign's retry schedule stays reproducible.
                delay = resilience_mod.jittered_backoff(
                    policy.backoff_seconds, attempt,
                    key=f"{name}/{scheme}/{config.seed}/{config.trials}",
                )
                trace_mod.current().instant(
                    "chunk_retry", cat="resilience", attempt=attempt
                )
                rlog.emit(
                    "chunk_retry",
                    note=(f"retrying {len(pending)} lost chunk(s), "
                          f"attempt {attempt}/{policy.max_retries} "
                          f"after {delay:.1f}s backoff"),
                    attempt=attempt,
                    chunks=len(pending),
                    delay_seconds=delay,
                )
                resilience_mod.sleep(delay)
            try:
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending)),
                    initializer=_init_worker,
                    initargs=(name, scheme, config,
                              global_registry().enabled),
                ) as pool:
                    futures = {
                        pool.submit(_run_chunk, chunk): ordinal
                        for ordinal, chunk in pending.items()
                    }
                    for future in as_completed(futures):
                        ordinal = futures[future]
                        try:
                            chunk_result = future.result()
                        except BrokenProcessPool as err:
                            last_error = err
                            continue
                        del pending[ordinal]
                        sink(chunk_result)
            except BrokenProcessPool as err:
                last_error = err
            if pending:
                attempt += 1
                trace_mod.current().instant(
                    "worker_failure", cat="resilience",
                    lost_chunks=len(pending),
                )
                rlog.emit(
                    "worker_failure",
                    note=(f"worker pool broke with {len(pending)} chunk(s) "
                          f"outstanding: {last_error}"),
                    attempt=attempt,
                    lost_chunks=len(pending),
                    error=str(last_error),
                )
    finally:
        _FORK_PREPARED = None
