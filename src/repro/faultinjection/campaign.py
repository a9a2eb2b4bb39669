"""Statistical fault-injection campaigns (paper Section IV).

One campaign = one (workload, protection scheme) pair:

1. build a fresh module and apply the scheme (profiling on the *train* input
   first when the scheme needs value checks);
2. run the golden (fault-free) run on the *test* input, in guard-counting
   mode — its guard failures are the false positives of Section V;
3. run N injection trials: each picks a uniformly random dynamic cycle within
   the golden run length, a random bit, and a random occupied physical
   register (chosen at injection time), then classifies the outcome per
   Section IV-C.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .. import durable, settings
from ..obs import events as obs_events
from ..obs import heartbeat as heartbeat_mod
from ..obs import trace as trace_mod
from ..obs.metrics import global_registry
from ..profiling.profiler import collect_profiles
from ..sim.compiled import compile_variants
from ..sim.config import SimConfig
from ..sim.events import (
    ArithmeticTrap,
    GuardTrap,
    HarnessContainedTrap,
    MemoryTrap,
    SimTrap,
    StackOverflowTrap,
    TimeoutTrap,
)
from ..sim.faults import (
    CHAOS_FAULT_MODEL,
    CONCRETE_FAULT_MODELS,
    FAULT_MODELS,
    TRIAGEABLE_FAULT_MODELS,
    InjectionPlan,
)
from ..sim.interpreter import Interpreter
from ..sim import memfaults as memfaults_mod
from ..sim import snapshot as snapshot_mod
from ..transforms.checkconfig import ProtectionConfig
from ..transforms.pipeline import SchemeStats, apply_scheme
from ..workloads.base import Workload
from . import resilience as resilience_mod
from .outcomes import CampaignResult, Outcome, TrialResult
from .resilience import ResiliencePolicy


_RESULT = settings.tags(result=True)


@dataclass(frozen=True)
class CampaignConfig:
    """Tunables of a fault-injection campaign.

    Each field is tagged result-affecting or execution-only
    (:func:`repro.settings.tags`): the disk-cache and checkpoint keys hash
    exactly the result-affecting fields.  A field left ``None`` takes its
    environment twin, else its default (:func:`repro.settings.resolve`);
    the entry points resolve a config once, so workers inherit the parent's
    decisions.
    """

    trials: int = field(default=100, metadata=_RESULT)
    seed: int = field(default=2014, metadata=_RESULT)
    #: trap within this many cycles of injection = HWDetect, later = Failure
    symptom_window: int = field(default=1000, metadata=_RESULT)
    #: injection runs are aborted (Failure: infinite loop) after this multiple
    #: of the golden instruction count
    timeout_factor: float = field(default=10.0, metadata=_RESULT)
    sim: SimConfig = field(default_factory=SimConfig, metadata=_RESULT)
    protection: ProtectionConfig = field(
        default_factory=ProtectionConfig, metadata=_RESULT
    )
    #: use the test input for profiling instead of the train input (the
    #: paper's 2-fold cross-validation experiment swaps them)
    swap_train_test: bool = field(default=False, metadata=_RESULT)
    #: worker processes for trial execution; 1 = in-process serial, 0 = one
    #: per CPU.  Results are bit-identical for any value (trial plans are
    #: pre-drawn serially).
    jobs: Optional[int] = field(
        default=None, metadata=settings.tags(settings.JOBS, result=False)
    )
    #: structured JSONL trial event log path ("" = off)
    obs_log: Optional[str] = field(
        default=None, metadata=settings.tags(settings.OBS, result=False)
    )
    #: checkpoint file for crash-resumable campaigns ("" = off)
    checkpoint: Optional[str] = field(
        default=None, metadata=settings.tags(settings.CHECKPOINT, result=False)
    )
    #: recovery policy (on/off switch, retry budget, checkpoint cadence):
    #: recovery changes *how* trials get executed, never what they compute.
    resilience: Optional[ResiliencePolicy] = field(
        default=None,
        metadata=settings.tags(result=False, nested=ResiliencePolicy),
    )
    #: golden-run snapshot cadence for shared-prefix trial execution
    #: (``docs/PERFORMANCE.md``): 0 = disabled, -1 = auto, N > 0 = snapshot
    #: every N golden cycles.  Restore is bit-invisible by construction
    #: (differential tests enforce it).
    snapshot_every: Optional[int] = field(
        default=None,
        metadata=settings.tags(settings.SNAPSHOT_EVERY, result=False),
    )
    #: dead-flip triage: short-circuit provably-dead flips straight to
    #: Masked, skipping the post-injection run and output comparison — a
    #: triaged trial records exactly what a full run would.
    triage: Optional[bool] = field(
        default=None, metadata=settings.tags(settings.TRIAGE, result=False)
    )
    #: fault model drawn for every trial: one of
    #: :data:`~repro.sim.faults.CONCRETE_FAULT_MODELS` or ``"chaos"`` (each
    #: trial draws a concrete model from the campaign RNG).  Keys carry it
    #: only when it is not the paper's ``single_bit``, so historical
    #: single-bit keys stay valid.
    fault_model: Optional[str] = field(
        default=None, metadata=settings.tags(settings.FAULT_MODEL, result=True)
    )
    #: Chrome trace-event file for hierarchical wall-clock spans
    #: ("" = off).  Spans live in the trace file only — results, obs logs,
    #: and checkpoints are byte-identical with tracing on or off.
    trace: Optional[str] = field(
        default=None, metadata=settings.tags(settings.TRACE, result=False)
    )
    #: live status/heartbeat JSON path, atomically replaced at a rate-limited
    #: cadence while the campaign runs ("" = off).  Watch it with
    #: ``python -m repro.obs top``.
    heartbeat: Optional[str] = field(
        default=None, metadata=settings.tags(settings.HEARTBEAT, result=False)
    )
    #: batched lane-parallel trial execution (:mod:`repro.sim.batched`):
    #: lanes per sweep; 0/1 = off (scalar fastpath).  Requires triage on —
    #: with triage off the backend falls back to scalar.  Batched results
    #: are byte-identical to scalar for any batch size (differential tests
    #: enforce it).
    batch: Optional[int] = field(
        default=None, metadata=settings.tags(settings.BATCH, result=False)
    )

    def __post_init__(self) -> None:
        # A typo must never silently fall back to the default model.
        model = self.fault_model
        if (model is not None and model != CHAOS_FAULT_MODEL
                and model not in FAULT_MODELS):
            known = ", ".join(CONCRETE_FAULT_MODELS + (CHAOS_FAULT_MODEL,))
            raise ValueError(f"unknown fault model {model!r} (known: {known})")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")


@dataclass
class PreparedModule:
    """A workload compiled and protected: :func:`prepare`'s module stage.

    It holds everything a disk-cache key needs (the protected module's IR)
    and everything a Figure 12 timing run or Figure 10's static counts
    read, but no golden run.
    """

    workload: Workload
    scheme: str
    module: object
    scheme_stats: SchemeStats
    #: the golden run's inputs (the test input, or the train input when
    #: ``swap_train_test`` swaps them)
    inputs: Dict[str, Sequence]


@dataclass
class PreparedWorkload(PreparedModule):
    """A prepared module plus its golden run: ready for trials."""

    golden_outputs: Dict[str, np.ndarray]
    golden_instructions: int
    golden_guard_failures: int
    golden_guard_evaluations: int
    #: guards that fired in the fault-free run (false positives); disabled in
    #: trials, modelling the recover-once-then-ignore policy of Section III-C
    noisy_guards: frozenset = frozenset()
    #: golden-run snapshots for fast-forward trial restore (None when
    #: snapshotting is disabled or did not pay off).  Never pickled: workers
    #: rebuild their PreparedWorkload (or inherit it over fork).
    snapshots: Optional[snapshot_mod.SnapshotStore] = None
    #: golden-run occupancy map for the memory-hierarchy fault models (None
    #: unless the campaign's model consumes it).  Like ``snapshots``, never
    #: pickled: workers recompute it deterministically.
    occupancy: Optional[memfaults_mod.OccupancyMap] = None
    #: the (tracked, untracked) compiled variants every trial runs on,
    #: resolved once per campaign (:func:`_ensure_compiled`); None makes
    #: each trial run look them up itself
    compiled: Optional[Tuple] = None


def prepare_module(
    workload: Workload, scheme: str, config: Optional[CampaignConfig] = None
) -> PreparedModule:
    """:func:`prepare`'s module stage: build, value profile, transform.

    The value profile runs on the train input (the test input under
    ``swap_train_test``) and only for ``dup_valchk``.
    """
    config = settings.resolve(config or CampaignConfig())
    tracer = trace_mod.activate(config.trace)
    with tracer.span("build_module", cat="prepare"):
        module = workload.build_module()

    profile_inputs = workload.train_inputs()
    run_inputs = workload.test_inputs()
    if config.swap_train_test:
        profile_inputs, run_inputs = run_inputs, profile_inputs

    profiles = None
    if scheme == "dup_valchk":
        with tracer.span("profile", cat="prepare"):
            profiles = collect_profiles(
                module,
                inputs=profile_inputs,
                entry=workload.entry,
                num_bins=config.protection.histogram_bins,
                top_capacity=config.protection.top_value_capacity,
                config=config.sim,
            )
    with tracer.span("apply_scheme", cat="prepare"):
        stats = apply_scheme(
            module, scheme, profiles=profiles, config=config.protection
        )
    return PreparedModule(workload, scheme, module, stats, run_inputs)


def prepare(
    workload: Workload, scheme: str, config: Optional[CampaignConfig] = None,
    stage: Optional[PreparedModule] = None, capture: bool = True,
) -> PreparedWorkload:
    """Compile, protect, and golden-run a workload under one scheme.

    Runs the module stage (:func:`prepare_module`), unless ``stage`` is
    that stage already done under the same config, then the golden stage:
    the golden run, then the capture run (:func:`_capture_golden_state`),
    which ``capture=False`` skips: no snapshots and no occupancy map.
    """
    config = settings.resolve(config or CampaignConfig())
    tracer = trace_mod.activate(config.trace)
    with tracer.span(
        "prepare", cat="prepare", workload=workload.name, scheme=scheme
    ):
        if stage is None:
            stage = prepare_module(workload, scheme, config)
        with tracer.span("golden_run", cat="prepare"):
            golden_interp = Interpreter(
                stage.module, config=config.sim, guard_mode="count"
            )
            golden_outputs, golden_result = workload.run(
                stage.module, stage.inputs, interpreter=golden_interp
            )
        snapshots, occupancy = _capture_golden_state(
            workload, stage.module, stage.inputs, golden_result.instructions,
            config,
        ) if capture else (None, None)
    return PreparedWorkload(
        workload=workload,
        scheme=scheme,
        module=stage.module,
        scheme_stats=stage.scheme_stats,
        inputs=stage.inputs,
        golden_outputs=golden_outputs,
        golden_instructions=golden_result.instructions,
        golden_guard_failures=golden_result.guard_stats.total_failures,
        golden_guard_evaluations=golden_result.guard_stats.evaluations,
        noisy_guards=frozenset(golden_result.guard_stats.failures_by_guard),
        snapshots=snapshots,
        occupancy=occupancy,
    )


def _capture_golden_state(
    workload: Workload,
    module,
    run_inputs,
    golden_instructions: int,
    config: CampaignConfig,
):
    """Second, instrumented golden run: capture snapshots and/or occupancy.

    Returns ``(snapshots, occupancy)``; the snapshot store also keeps the
    golden run's end state for the re-convergence cut-off.  Snapshot
    capture is skipped when snapshotting is disabled (``snapshot_every=0``)
    or the auto heuristic deems the golden run too short to pay for the
    extra capture run; occupancy capture is skipped unless the campaign's
    fault model consumes occupancy data
    (:data:`~repro.sim.memfaults.OCCUPANCY_MODELS`).  When
    both are wanted they share ONE instrumented pass via
    :class:`~repro.sim.memfaults.FusedCapture`, so a memory-model prepare
    pays only the load/store wrapper overhead on top of the snapshot run —
    not a whole extra execution.

    Both hook the fast path.  The occupancy pass analyses the golden run,
    which both interpreters execute identically, so it always runs on the
    fast path and memory-model results do not depend on ``REPRO_FASTPATH``;
    a snapshot-only pass follows ``REPRO_FASTPATH``, since only fast-path
    trials restore snapshots.  The boundary cadence is a pure function of
    the golden instruction count, so the map (and every memory-model
    verdict derived from it) is bit-identical across processes and config
    variations.  The capture run is verified to retire exactly the golden
    instruction count — any mismatch (it cannot happen; this is a
    tripwire) drops the captured state rather than risking divergent
    trials.
    """
    snap_recorder = None
    every = config.snapshot_every
    if every != 0:
        cadence = (
            every if every > 0
            else snapshot_mod.auto_cadence(golden_instructions)
        )
        if cadence is not None and cadence < golden_instructions:
            snap_recorder = snapshot_mod.SnapshotRecorder(cadence)

    occ_recorder = None
    if config.fault_model in memfaults_mod.OCCUPANCY_MODELS:
        occ_recorder = memfaults_mod.OccupancyRecorder(
            memfaults_mod.boundary_cadence(golden_instructions),
            config.sim.l1d,
        )

    if snap_recorder is None and occ_recorder is None:
        return None, None
    capture_interp = Interpreter(
        module, config=config.sim, guard_mode="count",
        fastpath=True if occ_recorder is not None else None,
    )
    if not capture_interp.fastpath:
        return None, None
    if snap_recorder is not None and occ_recorder is not None:
        capture = memfaults_mod.FusedCapture(snap_recorder, occ_recorder)
        span = "golden_capture"
    elif snap_recorder is not None:
        capture = snap_recorder
        span = "snapshot_capture"
    else:
        capture = occ_recorder
        span = "occupancy_capture"
    with trace_mod.current().span(span, cat="prepare"):
        _, capture_result = workload.run(
            module, run_inputs, interpreter=capture_interp, capture=capture
        )
    if capture_result.instructions != golden_instructions:
        return None, None  # pragma: no cover - determinism tripwire
    output_names = workload.output_names(module)
    snapshots = None
    if snap_recorder is not None and len(snap_recorder.store):
        snapshots = snap_recorder.store
        # What a trial cut off at re-convergence ends with.
        snapshots.end = snapshot_mod.GoldenEnd(
            capture_interp, capture_result, output_names
        )
    occupancy = None
    if occ_recorder is not None:
        occupancy = occ_recorder.finalize(output_names, golden_instructions)
    return snapshots, occupancy


def _ensure_occupancy(
    prepared: PreparedWorkload,
    config: CampaignConfig,
    model: Optional[str] = None,
) -> None:
    """Attach an occupancy map to an already-prepared workload on demand.

    Covers callers that prepared once and reuse the workload across models
    (the chaos harness, shared test fixtures, a direct :func:`run_trial`):
    when ``model`` (default: the config's) needs the map but ``prepare()``
    ran without it, capture it here with an occupancy-only pass.
    ``run_campaign`` calls this before any worker pool is created, so
    forked workers inherit the exact same map.
    """
    model = model or config.fault_model
    if (prepared.occupancy is not None
            or model not in memfaults_mod.OCCUPANCY_MODELS):
        return
    _, prepared.occupancy = _capture_golden_state(
        prepared.workload, prepared.module, prepared.inputs,
        prepared.golden_instructions,
        replace(config, snapshot_every=0, fault_model=model),
    )


def _ensure_compiled(prepared: PreparedWorkload) -> None:
    """Resolve the compiled variants the campaign's trials run on.

    One module token check per campaign instead of one per trial run.
    ``run_campaign`` calls this before any worker pool is created, so
    forked workers inherit the variants and count no ``sim.compile.*``
    lookups of their own.
    """
    prepared.compiled = compile_variants(prepared.module, False, (True, False))


def run_trial(
    prepared: PreparedWorkload,
    cycle: int,
    bit: int,
    seed: int,
    config: CampaignConfig,
    stats: Optional[Dict[str, int]] = None,
    model: str = "single_bit",
) -> TrialResult:
    """Inject one fault and classify the outcome per Section IV-C.

    When the prepared workload carries golden-run snapshots (and the config
    does not disable them), the trial fast-forwards from the nearest snapshot
    before its injection cycle instead of simulating the shared prefix; with
    triage on, a flip proven dead at injection time short-circuits straight
    to Masked, and a trial whose state re-converges with a golden snapshot
    ends there.  All are bit-invisible: the returned TrialResult is identical
    to a from-scratch run's.  ``stats``, when given, accumulates the
    :data:`~repro.obs.events.PREFIX_STATS` counts.

    ``model`` names the :class:`~repro.sim.faults.FaultModel` to inject
    (always a concrete model — the campaign resolves ``chaos`` per plan).
    A memory-hierarchy model on a workload prepared without an occupancy
    map gets one attached first, so the trial equals the campaign's.
    Every trial terminates with a classified outcome: the interpreter
    contains post-injection Python exceptions as
    :class:`HarnessContainedTrap`, and a last-resort boundary here does the
    same for harness code outside the interpreter (output comparison,
    fidelity scoring) so corrupted outputs can never kill a worker.
    """
    config = settings.resolve(config)
    plan = InjectionPlan(cycle=cycle, bit=bit, seed=seed, model=model)
    _ensure_occupancy(prepared, config, model)
    interp = _trial_interpreter(prepared, config)
    return _drive_trial(prepared, plan, interp, config, stats)


def _trial_interpreter(
    prepared: PreparedWorkload, config: CampaignConfig
) -> Interpreter:
    """A fresh detect-mode interpreter for one trial of ``prepared``."""
    interp = Interpreter(
        prepared.module,
        config=config.sim,
        guard_mode="detect",
        disabled_guards=set(prepared.noisy_guards),
    )
    # Memory-hierarchy models draw their targets and verdicts from the
    # golden-run occupancy map; injecting one with None here raises.
    interp._occupancy = prepared.occupancy
    interp._trial_variants = prepared.compiled
    return interp


def _drive_trial(
    prepared: PreparedWorkload,
    plan: InjectionPlan,
    interp: Interpreter,
    config: CampaignConfig,
    stats: Optional[Dict[str, int]],
) -> TrialResult:
    """Run + classify one trial on a ready interpreter (the scalar driver).

    Shared by :func:`run_trial` (fresh scalar interpreter) and the batched
    backend, which hands in a :class:`~repro.sim.batched.BatchedSweep` whose
    final lane *is* this trial — the sweep's earlier lanes strike and roll
    back inside ``workload.run``, invisible to the classification here.
    """
    limit = int(prepared.golden_instructions * config.timeout_factor) + 10_000
    # The span's (cycle, bit, seed) joins it to the trial's obs-log record:
    # a trial's wall time lives here, never in its result or log record.
    with trace_mod.current().span(
        "trial", cat="trial", cycle=plan.cycle, bit=plan.bit, seed=plan.seed,
        model=plan.model,
    ):
        try:
            return _classify_trial(
                prepared, plan, interp, limit, config, stats
            )
        except Exception as err:
            # Last-resort containment (the interpreter's own boundary
            # converts in-simulation exceptions before they get here).
            # Pre-injection exceptions are harness bugs and must surface.
            if interp.injection_record is None:
                raise
            trap = HarnessContainedTrap(
                type(err).__name__, str(err), interp.cycle
            )
            return _trial_from_trap(
                interp, plan, _symptom_outcome(trap, plan, config), trap
            )


def _symptom_outcome(
    trap: SimTrap, plan: InjectionPlan, config: CampaignConfig
) -> Outcome:
    """HWDetect within the symptom window after injection, Failure beyond —
    the paper's Section IV-C policy for hardware-visible symptoms."""
    within = (trap.cycle - plan.cycle) <= config.symptom_window
    return Outcome.HWDETECT if within else Outcome.FAILURE


def _classify_trial(
    prepared: PreparedWorkload,
    plan: InjectionPlan,
    interp: Interpreter,
    limit: int,
    config: CampaignConfig,
    stats: Optional[Dict[str, int]],
) -> TrialResult:
    workload = prepared.workload
    golden_fits = limit >= prepared.golden_instructions
    restore = converge = None
    if (
        prepared.snapshots is not None
        and interp.fastpath
        and config.snapshot_every != 0
    ):
        restore = prepared.snapshots.nearest(plan.cycle)
        if restore is not None and stats is not None:
            stats["restores"] = stats.get("restores", 0) + 1
            stats["replay_cycles_saved"] = (
                stats.get("replay_cycles_saved", 0) + restore.cycle
            )
        # The re-convergence cut-off rides the triage switch for every
        # model: a matching state proves the rest of the run golden, and
        # like a Masked verdict that needs the golden run to fit the budget.
        if config.triage and golden_fits:
            converge = prepared.snapshots

    # Dead-flip triage is sound for single-site models with a deadness
    # proof: register liveness for ``single_bit``, the occupancy map for the
    # memory-hierarchy models.  Multi-site and register-persistent models
    # (double_bit, burst, stuck_at) keep the full run.  A Masked verdict
    # also assumes the rest of the golden run fits the instruction budget.
    triage = (
        config.triage
        and plan.model in TRIAGEABLE_FAULT_MODELS
        and golden_fits
    )
    tracer = trace_mod.current()
    try:
        run_start = time.perf_counter_ns() if tracer.enabled else 0
        try:
            outputs, result = workload.run(
                prepared.module,
                prepared.inputs,
                interpreter=interp,
                injection=plan,
                max_instructions=limit,
                restore_from=restore,
                triage=triage,
                converge=converge,
            )
        finally:
            if tracer.enabled:
                # Split the run at the injection instant: "replay" is the
                # golden prefix up to the flip, "detect" is post-injection
                # execution until the verdict (trap, timeout, or clean end).
                run_end = time.perf_counter_ns()
                inject_ns = getattr(interp, "trace_inject_ns", None)
                if inject_ns is not None and run_start <= inject_ns <= run_end:
                    tracer.add_complete("replay", "trial", run_start, inject_ns)
                    tracer.add_complete("detect", "trial", inject_ns, run_end)
                else:
                    tracer.add_complete("replay", "trial", run_start, run_end)
    except snapshot_mod.TriageMasked as masked:
        # The flip was proven dead at injection time: execution from here is
        # identical to the golden run, which completed with identical
        # outputs, so the full run would have classified this trial Masked
        # with the exact same injection record.
        if stats is not None:
            key = (
                "triaged_dead_memory"
                if getattr(masked, "reason", "") == "dead_memory"
                else "triaged_masked"
            )
            stats[key] = stats.get(key, 0) + 1
        return _base_trial(interp, plan)
    except GuardTrap as trap:
        trial = _trial_from_trap(interp, plan, Outcome.SWDETECT, trap)
        trial.detector_guard = trap.guard_id
        trial.detector_kind = trap.guard_kind
        return trial
    except TimeoutTrap as trap:
        return _trial_from_trap(interp, plan, Outcome.FAILURE, trap)
    except (
        MemoryTrap, ArithmeticTrap, StackOverflowTrap, HarnessContainedTrap
    ) as trap:
        outcome = _symptom_outcome(trap, plan, config)
        return _trial_from_trap(interp, plan, outcome, trap)

    if interp.converged_at is not None and stats is not None:
        stats["converged"] = stats.get("converged", 0) + 1
        stats["converged_cycles_saved"] = (
            stats.get("converged_cycles_saved", 0)
            + prepared.golden_instructions - interp.converged_at
        )
    with tracer.span("classify", cat="trial"):
        trial = _base_trial(interp, plan)
        identical = all(
            np.array_equal(prepared.golden_outputs[k], outputs[k])
            for k in prepared.golden_outputs
        )
        if identical:
            trial.outcome = Outcome.MASKED
            return trial

        fid = workload.fidelity(prepared.golden_outputs, outputs)
        trial.is_sdc = True
        trial.fidelity_score = fid.score
        if fid.acceptable:
            # Acceptable corruption: ASDC — the paper counts these as Masked
            # in the coverage view and separates them in the SDC view.
            trial.outcome = Outcome.MASKED
            trial.is_asdc = True
        else:
            trial.outcome = Outcome.USDC
        return trial


#: trap class → event-log trap kind
_TRAP_KINDS = {
    GuardTrap: "guard",
    MemoryTrap: "memory",
    ArithmeticTrap: "arithmetic",
    StackOverflowTrap: "stack_overflow",
    TimeoutTrap: "timeout",
}


def _trial_from_record(record, plan: InjectionPlan) -> TrialResult:
    """Masked-outcome TrialResult from an injection record.

    Shared by the scalar path (which reads the record off the interpreter)
    and the batched lane sweep (which carries the record on the lane), so
    both produce byte-identical trials for the same strike.
    """
    trial = TrialResult(
        outcome=Outcome.MASKED, injection_cycle=plan.cycle, bit=plan.bit,
        fault_model=plan.model,
    )
    if record is not None:
        trial.landed = record.landed
        trial.was_live = record.was_live
        trial.value_name = record.value_name
        trial.function = record.function
        if record.was_live:
            trial.change_magnitude = record.change_magnitude
    return trial


def _base_trial(interp: Interpreter, plan: InjectionPlan) -> TrialResult:
    return _trial_from_record(interp.injection_record, plan)


def _trial_from_trap(
    interp: Interpreter, plan: InjectionPlan, outcome: Outcome, trap: SimTrap
) -> TrialResult:
    trial = _base_trial(interp, plan)
    trial.outcome = outcome
    trial.event_cycle = trap.cycle
    kind = _TRAP_KINDS.get(trap.__class__)
    if kind is None:
        # e.g. HarnessContainedTrap names its own kind ("contained:<Exc>").
        kind = getattr(trap, "trap_kind", trap.__class__.__name__)
    trial.trap_kind = kind
    return trial


def run_batch_trials(
    prepared: PreparedWorkload,
    items: Sequence,
    config: CampaignConfig,
    stats: Optional[Dict[str, int]] = None,
) -> List:
    """Execute ``(index, plan)`` trials through one batched lane sweep.

    Returns ``(index, trial)`` pairs in completion order:
    masked lanes first (their verdict was decided in-sweep from the exact
    injection record a scalar run would produce), then each window's final
    lane (whose scalar trial the sweep itself became), then diverged lanes
    via the scalar fastpath.  Each :class:`TrialResult` is byte-identical to
    :func:`run_trial`'s for the same plan — batch composition only affects
    wall-clock, never outcomes.  The trial executor
    (:func:`~.parallel._execute_chunk`) calls it for batched chunks.
    """
    from ..sim import batched as batched_mod

    def classify(plan, sweep):
        return _drive_trial(prepared, plan, sweep, config, stats)

    masked, peeled, continued, info = batched_mod.sweep_batch(
        prepared, items, config, classify
    )
    if stats is not None:
        stats["batched_batches"] = stats.get("batched_batches", 0) + 1
        stats["batched_lanes"] = stats.get("batched_lanes", 0) + info.lanes
        stats["batched_masked"] = stats.get("batched_masked", 0) + info.masked
        stats["batched_diverged"] = (
            stats.get("batched_diverged", 0) + sum(info.divergence.values())
        )
        stats["batched_vector_cycles"] = (
            stats.get("batched_vector_cycles", 0) + info.vector_cycles
        )
        if info.fallback:
            stats["batched_fallbacks"] = stats.get("batched_fallbacks", 0) + 1
        for reason, count in info.divergence.items():
            key = f"batched_div_{reason}"
            stats[key] = stats.get(key, 0) + count
    out = []
    for lane in masked:
        if stats is not None:
            key = (
                "triaged_dead_memory" if lane.reason == "dead_memory"
                else "triaged_masked"
            )
            stats[key] = stats.get(key, 0) + 1
        out.append((lane.index, _trial_from_record(lane.record, lane.plan)))
    out.extend(continued)
    for index, plan, _reason in peeled:
        out.append((index, run_trial(
            prepared, plan.cycle, plan.bit, plan.seed, config,
            stats=stats, model=plan.model,
        )))
    return out


def draw_plans(
    config: CampaignConfig, prepared: PreparedWorkload
) -> List[InjectionPlan]:
    """Pre-draw every trial's (cycle, bit, seed) plan, serially.

    The single source of truth for campaign randomness: both the serial and
    the parallel execution paths consume this list, which is what makes a
    ``jobs=N`` campaign bit-identical to ``jobs=1``.  The RNG is seeded from
    a sha256 of (seed, workload, scheme) — deterministic across processes
    (Python's str hash is salted, so a tuple hash would make campaigns
    irreproducible between runs) — and each trial draws cycle, bit, and
    per-trial seed in that exact order, matching the historical interleaved
    loop draw-for-draw.

    Fault models add **no** plan draws for any concrete model — extra
    model randomness (burst width, stuck polarity, memory word, second bit)
    comes from the trial's private seed at injection time — so single-bit
    plans are byte-identical to the historical ones.  The ``chaos``
    pseudo-model draws exactly one extra value per trial, *after* the seed:
    the concrete model, uniform over
    :data:`~repro.sim.faults.CONCRETE_FAULT_MODELS`.
    """
    config = settings.resolve(config)
    model = config.fault_model
    chaos = model == CHAOS_FAULT_MODEL
    key = f"{config.seed}:{prepared.workload.name}:{prepared.scheme}".encode()
    rng = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
    plans = []
    for _ in range(config.trials):
        cycle = rng.randrange(1, prepared.golden_instructions + 1)
        bit = rng.randrange(config.sim.register_flip_bits)
        seed = rng.randrange(1 << 30)
        plan_model = model
        if chaos:
            plan_model = CONCRETE_FAULT_MODELS[
                rng.randrange(len(CONCRETE_FAULT_MODELS))
            ]
        plans.append(
            InjectionPlan(cycle=cycle, bit=bit, seed=seed, model=plan_model)
        )
    return plans


def batched_enabled(config: CampaignConfig) -> bool:
    """Is the batched lane-sweep backend on for this campaign?

    Requires a batch size > 1 and triage on: the sweep's Masked-in-place
    verdicts *are* strike-time triage decisions, so with triage off (where
    the scalar path runs every trial to completion) the backend has nothing
    sound to decide in place and falls back to scalar.
    """
    return config.batch > 1 and config.triage


def _record_prefix_stats(
    config: CampaignConfig, result: CampaignResult, stats: Dict[str, int]
) -> None:
    """Surface shared-prefix execution stats (snapshot restores, triage
    verdicts, re-convergence cut-offs): registry counters plus one
    ``prefix_sharing`` event in the ``<log>.resilience`` sidecar.

    Kept out of the main obs log on purpose: trial events are byte-identical
    with snapshots on or off, and folding per-campaign restore counts into
    the main log would break that differential guarantee.
    """
    if not any(stats.values()):
        return
    registry = global_registry()
    for name, counter in obs_events.PREFIX_STATS:
        registry.counter(counter).inc(stats.get(name, 0))
    if config.obs_log:
        obs_events.append_sidecar_event(
            config.obs_log,
            obs_events.prefix_sharing_event(
                result.workload, result.scheme, stats
            ),
        )


def _record_occupancy_event(
    config: CampaignConfig,
    result: CampaignResult,
    prepared: PreparedWorkload,
) -> None:
    """Emit the campaign's per-structure residency rows as one ``occupancy``
    event in the ``<log>.resilience`` sidecar — the AVF report joins these
    against the trial outcomes.  Sidecar-only for the same reason as
    ``prefix_sharing``: the main obs log must stay byte-identical whether
    the occupancy pass ran or not.
    """
    if not config.obs_log or prepared.occupancy is None:
        return
    obs_events.append_sidecar_event(
        config.obs_log,
        obs_events.occupancy_event(
            result.workload, result.scheme, prepared.occupancy.residency()
        ),
    )


def _open_checkpointer(
    prepared: PreparedWorkload,
    config: CampaignConfig,
    rlog: resilience_mod.ResilienceLogger,
    log: Optional[durable.AppendLog],
) -> Optional[resilience_mod.Checkpointer]:
    """Load (or initialise) the campaign's checkpoint, keyed like the disk
    cache so a checkpoint can never be replayed against different code,
    config, or seed.  The checkpoint records the obs ``log``'s offset
    before the campaign's first record; on a genuine resume the log is
    rolled back to the offset the interrupted campaign recorded, so the
    resumed run rewrites a log byte-identical to an uninterrupted one.
    """
    if not config.checkpoint or not config.resilience.enabled:
        return None
    from .diskcache import campaign_key

    key = campaign_key(
        prepared.module, prepared.workload.name, prepared.scheme, config
    )
    loaded = resilience_mod.load_checkpoint(
        config.checkpoint, key, config.trials, logger=rlog
    )
    restored = loaded.completed if loaded is not None else {}
    obs_offset = log.offset if log is not None else 0
    if restored:
        if log is not None and loaded.obs_log == config.obs_log:
            log.rollback(loaded.obs_log_offset)
            obs_offset = loaded.obs_log_offset
        rlog.emit(
            "checkpoint_load",
            note=(f"resuming from checkpoint: {len(restored)}/"
                  f"{config.trials} trials already complete"),
            path=config.checkpoint,
            completed=len(restored), trials=config.trials,
        )
    checkpoint = resilience_mod.Checkpoint(
        key=key,
        workload=prepared.workload.name,
        scheme=prepared.scheme,
        trials=config.trials,
        completed=dict(restored),
        # "no log" is stored as null, as checkpoints always have
        obs_log=config.obs_log or None,
        obs_log_offset=obs_offset,
    )
    return resilience_mod.Checkpointer(
        config.checkpoint, checkpoint,
        every=config.resilience.checkpoint_every, logger=rlog,
    )


class _TrialSink:
    """Takes every finished trial of one campaign, whatever ran it.

    Restored, in-process, pool and serial-fallback trials all arrive as
    :class:`~.parallel.ChunkResult` values.  Per chunk, the sink stores each
    trial by plan index and records it in the checkpoint, folds its stats
    (and a pool worker's counters), counts the chunk in the live
    status in one step, fires ``on_trial`` once per trial, and writes trial
    events as soon as the completed prefix of the plan grows.  A serial log
    therefore streams, and every mode writes the same bytes in plan order.
    """

    def __init__(self, plans, log, checkpointer, status, on_trial) -> None:
        self.plans = plans
        self.log = log
        self.checkpointer = checkpointer
        self.status = status
        self.on_trial = on_trial
        self.trials: Dict[int, TrialResult] = {}
        self.stats = {name: 0 for name, _ in obs_events.PREFIX_STATS}
        self._logged = 0

    def __call__(self, chunk) -> None:
        for index, trial in chunk.completions:
            self.trials[index] = trial
            if self.checkpointer is not None:
                self.checkpointer.record(index, trial)
        for key, value in (chunk.stats or {}).items():
            self.stats[key] = self.stats.get(key, 0) + value
        if chunk.counters:
            registry = global_registry()
            for name, value in chunk.counters.items():
                registry.counter(name).inc(value)
        self.status.add(trial.outcome.value for _, trial in chunk.completions)
        if self.on_trial is not None:
            for _, trial in chunk.completions:
                self.on_trial(trial)
        if self.log is not None:
            while self._logged in self.trials:
                index = self._logged
                self.log.append(obs_events.trial_event(
                    index, self.plans[index], self.trials[index]
                ))
                self._logged += 1


def _run_trials(prepared, plans, restored, config, sink, rlog) -> None:
    """Feed every trial of the campaign to ``sink``: restored trials first,
    then the pending ones — across the worker pool when ``config.jobs > 1``,
    else in-process one trial per chunk (``config.batch`` trials when
    batched), so progress and checkpoint cadence stay per trial."""
    from . import parallel

    if restored:
        sink(parallel.ChunkResult(sorted(restored.items())))
    pending = [
        (index, plan) for index, plan in enumerate(plans)
        if index not in restored
    ]
    if config.jobs > 1 and len(pending) > 1:
        parallel.run_trials_parallel(prepared, pending, config, sink, rlog)
        return
    size = config.batch if batched_enabled(config) else 1
    for at in range(0, len(pending), size):
        sink(parallel._execute_chunk(prepared, config, pending[at:at + size]))


def run_campaign(
    workload: Workload,
    scheme: str,
    config: Optional[CampaignConfig] = None,
    prepared: Optional[PreparedWorkload] = None,
    on_trial: Optional[Callable[[TrialResult], None]] = None,
    progress: Optional[TextIO] = None,
) -> CampaignResult:
    """Run a full statistical fault-injection campaign.

    ``on_trial`` is invoked once per finished trial, in completion order,
    which under ``config.jobs > 1`` may differ from plan order; the returned
    result is always in plan order.
    ``progress`` is a stream (the CLIs pass stderr) that gets a
    rate-limited live progress line and, at once, a short line per recovery
    action (checkpoint load, chunk retry, serial fallback, quarantine).

    ``config`` is resolved once here (:func:`repro.settings.resolve`), so
    every worker runs under the parent's decisions.

    When ``config.obs_log`` (or ``REPRO_OBS``) names a path, a structured
    JSONL event log is appended there: a ``campaign_begin`` header, one
    ``trial`` record per plan (in plan order, written by this process
    whichever process ran the trial), and a ``campaign_end`` footer whose
    tallies match the returned result.  Every record is a pure function of
    the pre-drawn plans, so the log is byte-identical for any ``jobs``
    value.

    When ``config.checkpoint`` (or ``REPRO_CHECKPOINT``) names a path,
    completed trials are periodically persisted there and an interrupted
    campaign resumes from the last checkpoint on the next invocation —
    producing results and event logs byte-identical to an uninterrupted run
    (see ``docs/RESILIENCE.md``).  Worker failures are retried and degrade
    to in-process serial execution per ``config.resilience``.

    When ``config.trace`` (or ``REPRO_TRACE``) names a path, hierarchical
    wall-clock spans are appended there as Chrome trace events, each once,
    by the process that recorded it (:mod:`repro.obs.trace`);
    ``config.heartbeat`` (or ``REPRO_HEARTBEAT``) maintains a
    live status file for ``python -m repro.obs top``, fed by the same tally
    as the ``progress`` line.  Both are pure sidecars: results, the main
    obs log, cache keys, and checkpoints are byte-identical with them on or
    off (see ``docs/OBSERVABILITY.md``).
    """
    config = settings.resolve(config or CampaignConfig())
    tracer = trace_mod.activate(config.trace)
    status = heartbeat_mod.LiveStatus(
        workload.name, scheme, config.trials,
        path=config.heartbeat, stream=progress,
    )
    status.begin()
    campaign_span = tracer.span(
        "campaign", cat="campaign", workload=workload.name, scheme=scheme,
        trials=config.trials, jobs=config.jobs,
    )
    campaign_span.__enter__()
    campaign_ok = False
    try:
        prepared = prepared or prepare(workload, scheme, config)
        _ensure_occupancy(prepared, config)
        _ensure_compiled(prepared)
        plans = draw_plans(config, prepared)
        rlog = resilience_mod.ResilienceLogger(
            config.obs_log, echo=status.incident
        )
        log = durable.AppendLog(config.obs_log) if config.obs_log else None
        checkpointer = None
        try:
            checkpointer = _open_checkpointer(prepared, config, rlog, log)
            restored = (
                dict(checkpointer.completed)
                if checkpointer is not None else {}
            )
            result = CampaignResult(
                workload=workload.name,
                scheme=scheme,
                golden_instructions=prepared.golden_instructions,
                golden_guard_failures=prepared.golden_guard_failures,
                golden_guard_evaluations=prepared.golden_guard_evaluations,
                fault_model=config.fault_model,
            )
            if log is not None:
                log.append(obs_events.campaign_begin_event(result))
            sink = _TrialSink(plans, log, checkpointer, status, on_trial)
            _run_trials(prepared, plans, restored, config, sink, rlog)
            result.trials.extend(sink.trials[i] for i in range(len(plans)))
            _record_prefix_stats(config, result, sink.stats)
            _record_batched_stats(config, result, sink.stats)
            _record_occupancy_event(config, result, prepared)
            if log is not None:
                log.append(obs_events.campaign_end_event(result))
        except BaseException:
            # Persist every trial that did finish, so the interrupted
            # campaign (KeyboardInterrupt, lost pool, reboot) is resumable.
            if checkpointer is not None:
                checkpointer.flush(force=True)
            raise
        finally:
            if log is not None:
                log.close()
        if checkpointer is not None:
            checkpointer.clear()
        campaign_ok = True
    finally:
        campaign_span.__exit__(None, None, None)
        status.finish("done" if campaign_ok else "failed")
    return result


def _record_batched_stats(
    config: CampaignConfig, result: CampaignResult, stats: Dict[str, int]
) -> None:
    """Surface batched-lane execution stats: registry counters plus one
    ``batched`` event in the ``<log>.resilience`` sidecar.

    Sidecar-only for the same reason as ``prefix_sharing``: trial events are
    byte-identical with batching on or off, and lane/divergence counts in
    the main log would break that differential guarantee.
    """
    if not stats.get("batched_batches"):
        return
    registry = global_registry()
    registry.counter("batch.batches").inc(stats.get("batched_batches", 0))
    registry.counter("batch.lanes").inc(stats.get("batched_lanes", 0))
    registry.counter("batch.masked").inc(stats.get("batched_masked", 0))
    registry.counter("batch.diverged").inc(stats.get("batched_diverged", 0))
    registry.counter("batch.vector_cycles").inc(
        stats.get("batched_vector_cycles", 0)
    )
    registry.counter("batch.sweep_fallbacks").inc(
        stats.get("batched_fallbacks", 0)
    )
    divergence = {
        key[len("batched_div_"):]: value
        for key, value in stats.items()
        if key.startswith("batched_div_") and value
    }
    for reason, count in sorted(divergence.items()):
        registry.counter(f"batch.divergence.{reason}").inc(count)
    if config.obs_log:
        obs_events.append_sidecar_event(
            config.obs_log,
            obs_events.batched_event(
                result.workload,
                result.scheme,
                batches=stats.get("batched_batches", 0),
                lanes=stats.get("batched_lanes", 0),
                masked=stats.get("batched_masked", 0),
                diverged=stats.get("batched_diverged", 0),
                vector_cycles=stats.get("batched_vector_cycles", 0),
                fallbacks=stats.get("batched_fallbacks", 0),
                divergence=divergence,
            ),
        )
