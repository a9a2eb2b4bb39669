"""Parallel trial execution for fault-injection campaigns.

Design (see ``docs/PERFORMANCE.md``):

* **Determinism.** All randomness is consumed *before* fan-out:
  :func:`~repro.faultinjection.campaign.draw_plans` draws every trial's
  (cycle, bit, seed) serially from the hash-seeded campaign RNG, and each
  trial runs under its own private :class:`random.Random` seeded from the
  plan.  Workers therefore share no RNG state, and a ``jobs=N`` campaign is
  bit-identical to ``jobs=1``.

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
  stream back for progress callbacks, and results are re-ordered by the
  original plan index before returning.

* **Worker-failure recovery** (see ``docs/RESILIENCE.md``).  A SIGKILLed or
  OOM-killed worker breaks the whole :class:`ProcessPoolExecutor`; instead
  of aborting the campaign, the chunks that never reported back are
  resubmitted to a fresh pool with exponential backoff (deterministically
  jittered per campaign, so fleets of campaigns under ``repro.serve`` never
  retry in lockstep), and once the retry
  budget is exhausted (or immediately, under the ``serial`` policy) the
  residual trials degrade to in-process serial execution.  Trial plans are
  pre-drawn, so a retried or serially-executed chunk computes bit-identical
  results — recovery is invisible in the campaign outcome and visible only
  in the resilience audit log.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import trace as trace_mod
from ..sim.faults import InjectionPlan
from . import resilience as resilience_mod
from .campaign import CampaignConfig, PreparedWorkload, prepare
from .outcomes import TrialResult

__all__ = ["run_trials_parallel"]


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
        _PREPARED_MEMO[key] = found
    return found


#: (name, scheme, config) for the campaign this worker serves — shipped once
#: per worker via the pool initializer instead of once per chunk, so chunk
#: submissions pickle only the bare (index, cycle, bit, seed) tuples.
_WORKER_CAMPAIGN: Optional[Tuple[str, str, CampaignConfig]] = None


def _init_worker(name: str, scheme: str, config: CampaignConfig) -> None:
    global _WORKER_CAMPAIGN
    _WORKER_CAMPAIGN = (name, scheme, config)


def _execute_chunk(
    prepared: PreparedWorkload,
    config: CampaignConfig,
    chunk: Sequence[Tuple[int, int, int, int, str]],
) -> Tuple[List[Tuple[int, TrialResult]], List[Dict], Dict[str, int]]:
    """Run one chunk of (index, cycle, bit, seed, model) trials.

    Returns ``(results, anomalies, stats)`` — anomalies are watchdog events
    (trial timeout / quarantine) collected by
    :func:`~.resilience.run_trial_guarded` for the parent to log, and stats
    are the chunk's shared-prefix counters (snapshot restores, replay cycles
    saved, triaged-masked trials) for the parent to fold into the campaign
    totals.  When the campaign has an observability log configured, the
    chunk's trial events are also written to a shard file next to the log
    (named by the chunk's first plan index); the parent concatenates shards
    in plan order after the pool drains, making the merged log
    byte-identical to a serial run's (see :mod:`repro.obs.events`).

    Shared between the worker entry point (:func:`_run_chunk`) and the
    parent's serial-fallback path, so degraded execution behaves exactly
    like a worker would have.

    When the campaign is traced, the chunk runs under a ``chunk`` span and
    its buffered spans are flushed to this process's ``<trace>.spans-<pid>``
    sidecar afterwards — the parent folds every sidecar into the exported
    trace, so Perfetto shows one track per worker process.
    """
    tracer = trace_mod.activate(config.trace)
    try:
        with tracer.span(
            "chunk", cat="chunk", first=chunk[0][0], size=len(chunk)
        ):
            return _execute_chunk_trials(prepared, config, chunk)
    finally:
        tracer.flush_sidecar()


def _execute_chunk_trials(
    prepared: PreparedWorkload,
    config: CampaignConfig,
    chunk: Sequence[Tuple[int, int, int, int, str]],
) -> Tuple[List[Tuple[int, TrialResult]], List[Dict], Dict[str, int]]:
    from .campaign import batched_enabled

    if batched_enabled(config) and len(chunk) > 1:
        return _execute_chunk_batched(prepared, config, chunk)
    anomalies: List[Dict] = []
    stats: Dict[str, int] = {}
    if not config.obs_log:
        results = []
        for index, cycle, bit, seed, model in chunk:
            trial, notes = resilience_mod.run_trial_guarded(
                prepared, index, cycle, bit, seed, config, stats=stats,
                model=model,
            )
            results.append((index, trial))
            anomalies.extend(notes)
        return results, anomalies, stats
    import time

    from ..obs import events as obs_events

    results = []
    events = []
    for index, cycle, bit, seed, model in chunk:
        t0 = time.perf_counter() if config.obs_timing else 0.0
        trial, notes = resilience_mod.run_trial_guarded(
            prepared, index, cycle, bit, seed, config, stats=stats,
            model=model,
        )
        wall_ms = (
            (time.perf_counter() - t0) * 1e3 if config.obs_timing else None
        )
        results.append((index, trial))
        anomalies.extend(notes)
        events.append(
            obs_events.trial_event(
                index,
                InjectionPlan(cycle=cycle, bit=bit, seed=seed, model=model),
                trial, wall_ms=wall_ms,
            )
        )
    obs_events.write_shard(config.obs_log, chunk[0][0], events)
    return results, anomalies, stats


def _execute_chunk_batched(
    prepared: PreparedWorkload,
    config: CampaignConfig,
    chunk: Sequence[Tuple[int, int, int, int, str]],
) -> Tuple[List[Tuple[int, TrialResult]], List[Dict], Dict[str, int]]:
    """Batched-lane execution of one chunk (``config.batch`` lanes/sweep).

    A lane's verdict never depends on which lanes share its sweep, so
    sub-batching a chunk produces trials byte-identical to the serial
    batched portion's (and the scalar paths').  Trial events are sorted
    back into plan order before the shard write — shards must concatenate
    into the serial log byte for byte.  Batched mode never records
    ``wall_ms`` (see ``_run_serial_batched_portion``).
    """
    from .campaign import run_batch_trials

    anomalies: List[Dict] = []
    stats: Dict[str, int] = {}
    items = [
        (index, InjectionPlan(cycle=cycle, bit=bit, seed=seed, model=model))
        for index, cycle, bit, seed, model in chunk
    ]
    results: List[Tuple[int, TrialResult]] = []
    size = config.batch
    for at in range(0, len(items), size):
        for index, trial, notes in run_batch_trials(
            prepared, items[at:at + size], config, stats=stats
        ):
            results.append((index, trial))
            anomalies.extend(notes)
    results.sort(key=lambda item: item[0])
    if config.obs_log:
        from ..obs import events as obs_events

        plan_by_index = dict(items)
        obs_events.write_shard(
            config.obs_log,
            chunk[0][0],
            [
                obs_events.trial_event(index, plan_by_index[index], trial)
                for index, trial in results
            ],
        )
    return results, anomalies, stats


def _run_chunk(
    chunk: Sequence[Tuple[int, int, int, int, str]],
) -> Tuple[List[Tuple[int, TrialResult]], List[Dict], Dict[str, int]]:
    """Worker entry: resolve the per-process prepared workload and run."""
    name, scheme, config = _WORKER_CAMPAIGN  # type: ignore[misc]
    prepared = _worker_prepared(name, scheme, config)
    return _execute_chunk(prepared, config, chunk)


def _chunk_size(n_trials: int, jobs: int) -> int:
    """About three chunks per worker: keeps dispatch/IPC overhead low while
    letting faster workers steal from slower ones."""
    return max(1, min(32, -(-n_trials // (jobs * 3))))


def run_trials_parallel(
    prepared: PreparedWorkload,
    plans: Sequence[InjectionPlan],
    config: CampaignConfig,
    on_trial: Optional[Callable[[TrialResult], None]] = None,
    indices: Optional[Sequence[int]] = None,
    on_result: Optional[Callable[[int, TrialResult], None]] = None,
    rlog: Optional[resilience_mod.ResilienceLogger] = None,
    stats: Optional[Dict[str, int]] = None,
) -> List[TrialResult]:
    """Execute pre-drawn trial plans across ``config.jobs`` worker processes.

    ``config`` must be resolved (:func:`repro.settings.resolve`).  Returns
    results in plan order; ``on_trial`` fires in completion order,
    ``on_result`` fires alongside it with the original plan index (the
    campaign layer uses it to checkpoint completed trials).  ``indices``
    lets a resumed campaign run a subset of its plans under their original
    plan indices.  With ``config.obs_log`` set, workers leave per-chunk
    event shard files next to the log;
    :func:`~repro.faultinjection.campaign.run_campaign` merges them —
    direct callers must merge (or discard) shards themselves.

    A broken pool (killed worker) is handled per ``config.resilience``:
    lost chunks are resubmitted to a fresh pool with exponential backoff,
    then degrade to in-process serial execution once the retry budget is
    spent.  With resilience disabled the :class:`BrokenProcessPool` error
    propagates, as it did before the resilience layer existed.
    """
    global _FORK_PREPARED
    jobs = config.jobs
    if indices is None:
        indices = range(len(plans))
    tagged = [
        (index, plan.cycle, plan.bit, plan.seed, plan.model)
        for index, plan in zip(indices, plans)
    ]
    size = _chunk_size(len(tagged), jobs)
    pending: Dict[int, List[Tuple[int, int, int, int, str]]] = {
        ordinal: tagged[i:i + size]
        for ordinal, i in enumerate(range(0, len(tagged), size))
    }
    name, scheme = prepared.workload.name, prepared.scheme
    policy = config.resilience
    rlog = rlog or resilience_mod.ResilienceLogger(config.obs_log)

    results: Dict[int, TrialResult] = {}

    def consume(chunk_results, anomalies, chunk_stats) -> None:
        for anomaly in anomalies:
            kind = anomaly.pop("kind")
            rlog.emit(kind, note=f"{kind}: trial {anomaly.get('i')}", **anomaly)
        if stats is not None:
            for key, value in chunk_stats.items():
                stats[key] = stats.get(key, 0) + value
        for index, trial in chunk_results:
            results[index] = trial
            if on_result is not None:
                on_result(index, trial)
            if on_trial is not None:
                on_trial(trial)

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
            consume(*_execute_chunk(prepared, config, pending[ordinal]))
        pending.clear()

    attempt = 0
    last_error: Optional[BaseException] = None
    _FORK_PREPARED = (_prepared_key(name, scheme, config), prepared)
    try:
        while pending:
            if attempt > 0:
                if not policy.enabled or policy.on_worker_failure == "fail":
                    raise last_error
                if (
                    policy.on_worker_failure == "serial"
                    or attempt > policy.max_retries
                ):
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
                    initargs=(name, scheme, config),
                ) as pool:
                    futures = {
                        pool.submit(_run_chunk, chunk): ordinal
                        for ordinal, chunk in pending.items()
                    }
                    for future in as_completed(futures):
                        ordinal = futures[future]
                        try:
                            chunk_results, anomalies, chunk_stats = (
                                future.result()
                            )
                        except BrokenProcessPool as err:
                            last_error = err
                            continue
                        del pending[ordinal]
                        consume(chunk_results, anomalies, chunk_stats)
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
    ordered = [results[index] for index in indices]
    return ordered
