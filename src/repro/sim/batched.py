"""Batched lane-parallel trial execution: one golden sweep, many verdicts.

A fault-injection campaign replays the same instruction stream once per
trial, and PR 5's triage data shows the common case ends at the injection
instant: the flip lands dead (or lands nowhere) and the trial is Masked
without any post-injection execution.  For those trials the *entire* cost
is the shared golden prefix — which every trial of a batch replays
identically.

The batched backend amortises that prefix.  A batch of trials becomes
*lanes* of **sweep runs**: the lanes are grouped by nearest PR 5 snapshot,
and each group shares one fast-path execution of the golden stream that
fast-forwards to the group's snapshot and stops at each lane's planned
cycle.  Every stop performs that lane's injection against the live
architectural state and immediately classifies it:

* **Masked in place** — the injection proves dead at the strike instant
  (dead register flip, dead memory region, empty register file).  The lane
  is finished; the strike is rolled back byte-exactly via the undo journal
  (``Interpreter._undo_log`` / ``Memory._journal``) and the sweep continues
  along the *golden* path to the next lane.
* **Diverged** — the flip lands on live state, so post-injection execution
  would differ from the golden stream.  The lane is *peeled*: rolled back,
  marked with its divergence reason, and handed to the existing scalar
  fastpath (which restores from the same snapshot) for the full run.
* **Continued** — the *final* lane of a group needs no rollback: nothing
  after it wants the golden state, so its injection commits through the
  scalar ``_do_injection`` machinery and the sweep run simply *becomes*
  that lane's scalar trial, post-injection execution, classification and
  all.  This is what makes a sweep at worst cost-neutral: its replay is
  exactly the replay the final lane's scalar trial would have paid, and
  every earlier verdict rides along free.

Because each lane's verdict uses exactly the scalar path's RNG seeding,
slot-pick sequence, fault-model strike, and triage proof — against
architectural state that is bit-identical to what the scalar trial sees at
the same cycle — batched results, obs logs, cache keys, and checkpoints are
**byte-identical** to the scalar fastpath for every fault model and any
jobs count (differential tests pin this).  Batch composition is immaterial:
a lane's verdict never depends on which lanes share its sweep, which is
what lets serial and parallel chunking batch differently yet agree byte
for byte.

Escape hatches: any unexpected exception inside a sweep before the final
lane commits peels that window's lanes to the scalar path (correct by
construction, slower), as does a missing compiled fast path.  Lanes whose
fault model has no sound strike-time verdict (``double_bit``, ``burst``,
register ``stuck_at``, control faults) are peeled up front.

Enabled via ``CampaignConfig.batch`` / ``--batch`` / ``REPRO_BATCH`` (see
:mod:`repro.faultinjection.campaign`); ``docs/PERFORMANCE.md`` has the
layer-by-layer performance story.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import trace as trace_mod
from .faults import (
    TRIAGEABLE_FAULT_MODELS,
    InjectionPlan,
    InjectionRecord,
    get_fault_model,
)
from .interpreter import Interpreter
from .snapshot import TriageMasked

__all__ = [
    "BatchedSweep",
    "Lane",
    "SweepInfo",
    "lane_eligible",
    "sweep_batch",
]


class Lane:
    """One trial riding a batched sweep."""

    __slots__ = ("index", "plan", "masked", "reason", "record")

    def __init__(self, index: int, plan: InjectionPlan) -> None:
        self.index = index
        self.plan = plan
        #: True when the strike proved dead at injection time (verdict:
        #: Masked, identical to the scalar triage short-circuit)
        self.masked = False
        #: triage reason ("register" / "dead_memory") for masked lanes,
        #: "continued" for the committed final lane, a divergence reason
        #: ("live_strike" / "inject_error") for peeled ones
        self.reason = ""
        #: the injection record, filled exactly as a scalar trial would
        self.record: Optional[InjectionRecord] = None


class SweepInfo:
    """What one batch's sweeps did (feeds campaign stats and the obs
    sidecar)."""

    __slots__ = ("lanes", "masked", "vector_cycles", "fallback", "divergence")

    def __init__(self) -> None:
        self.lanes = 0
        #: lanes whose Masked verdict was decided in-sweep (continued final
        #: lanes that triage-masked included)
        self.masked = 0
        #: golden cycles the sweeps executed in lock-step (restore point to
        #: final-lane commit, summed over the batch's window sweeps)
        self.vector_cycles = 0
        #: True when a sweep aborted and peeled its lanes
        self.fallback = False
        #: peel/divergence reason → lane count (``continued`` = final lanes
        #: that committed live in-sweep; every non-masked lane lands here)
        self.divergence: Dict[str, int] = {}


def lane_eligible(plan: InjectionPlan) -> bool:
    """Can this plan's verdict be decided at strike time inside a sweep?

    Exactly the models whose dead-strike proof is sound (the triageable
    set; the memory-hierarchy members take theirs from the golden-run
    occupancy map, which every campaign attaches).  Everything else peels
    to the scalar path.
    """
    return plan.kind == "register" and plan.model in TRIAGEABLE_FAULT_MODELS


class BatchedSweep(Interpreter):
    """Interpreter variant that drives one golden run through many lanes.

    Reuses the scalar fast path's injection plumbing wholesale: the compiled
    loop stops at ``inject_cycle`` and calls :meth:`_do_injection`, which
    here processes every lane due at the current cycle and returns the next
    lane's cycle (the loop's pending-injection check does the scheduling).
    The *final* lane is not swept — its injection is delegated to the
    scalar ``Interpreter._do_injection`` and commits, at which point this
    run stops being a sweep and becomes that lane's ordinary scalar trial
    (guards armed, containment active, stuck-fault refires dispatched on
    the lane's real plan).

    Deviations from the scalar interpreter while sweeping:

    * earlier lanes never fill ``self.injection_record`` or arm the guards —
      the sweep stays a golden run between strikes, so guards cannot raise
      and containment stays out of the way until the final commit;
    * each stop trims the register file's write log to the entries that
      can still occupy a slot (the file reads its slots off the log, so
      every stop sees the slots the scalar path would);
    * register-file tracking stays on until the final commit (the run loop's
      untracked swap keys on ``injection_record``, which the rolled-back
      strikes never set), so every stop reads the scalar-identical register
      file; the post-commit tail runs untracked, exactly like a
      scalar trial's post-injection execution.
    """

    def __init__(self, module, lanes: Sequence[Lane], **kwargs) -> None:
        super().__init__(module, **kwargs)
        #: lanes in (cycle, index) order; _lane_pos is the first unprocessed
        self._lanes = list(lanes)
        self._lane_pos = 0
        #: the committed final lane's plan (refire dispatch target)
        self._live_plan: Optional[InjectionPlan] = None

    def run(self, entry: str = "main", args: Sequence[object] = (),
            inputs=None, injection=None, **kwargs):
        """Swap the (final-lane) injection plan for a first-stop pseudo-plan.

        The scalar trial driver passes the final lane's plan; the loop's
        pending-injection check must instead stop at the *earliest* lane.
        The pseudo-plan only schedules that first stop — `_do_injection`
        ignores it in favour of the real lane plans — and the per-lane RNG
        is re-seeded at each strike, so its bit/seed are immaterial.
        """
        first = self._lanes[0].plan
        pseudo = InjectionPlan(
            cycle=first.cycle, bit=0, seed=0, model=first.model
        )
        return super().run(
            entry=entry, args=args, inputs=inputs, injection=pseudo, **kwargs
        )

    # -- injection scheduling ------------------------------------------------

    def _do_injection(self, plan, top_frame=None, next_index: int = -1) -> int:
        """Strike every lane due at the current cycle; schedule the next.

        ``plan`` is the sweep's pseudo-plan and is ignored — the real plans
        live in the lanes.  The final lane commits via the scalar
        superclass implementation and its return value (one-shot -1, or a
        stuck-fault refire cadence) flows back to the loop unchanged.
        """
        if self.injection_record is not None:
            # Refire cadence of the committed final lane's persistent fault.
            return get_fault_model(self._live_plan.model).reapply(
                self, self._live_plan
            )
        self._regfile.trim()
        lanes = self._lanes
        pos = self._lane_pos
        last = len(lanes) - 1
        while pos < len(lanes) and lanes[pos].plan.cycle <= self.cycle:
            lane = lanes[pos]
            if pos == last:
                self._lane_pos = pos + 1
                return self._commit_final_lane(lane, top_frame, next_index)
            self._strike_lane(lane, top_frame, next_index)
            pos += 1
        self._lane_pos = pos
        return lanes[pos].plan.cycle

    def _commit_final_lane(self, lane: Lane, top_frame,
                           next_index: int) -> int:
        """Run the scalar injection for the last lane — no rollback.

        Nothing after this lane needs the golden state, so the scalar
        ``_do_injection`` runs verbatim on it: record filled and installed,
        guards armed, the strike left in place.  A dead strike raises
        :class:`TriageMasked` through to the scalar trial classifier; a
        live one lets the run continue to its ordinary verdict.  Either
        way this run produces the final lane's scalar trial bit-for-bit.
        """
        self._live_plan = lane.plan
        self._rng = random.Random(lane.plan.seed)
        try:
            ret = Interpreter._do_injection(self, lane.plan, top_frame,
                                            next_index)
        except TriageMasked as masked:
            lane.masked = True
            lane.reason = masked.reason
            lane.record = self.injection_record
            raise
        except BaseException:
            lane.reason = "continued"
            lane.record = self.injection_record
            raise
        lane.reason = "continued"
        lane.record = self.injection_record
        return ret

    def _strike_lane(self, lane: Lane, top_frame, next_index: int) -> None:
        """One lane's injection against the live golden state, rolled back.

        Byte-exact replica of the scalar trial's injection instant: fresh
        per-trial RNG from the plan seed, the model's own ``inject`` with a
        fresh record, and the triage machinery deciding dead-vs-live.  Every
        mutation the model makes (register binding, memory word, tag bytes)
        lands in the undo journal and is reverted before the sweep resumes,
        so inter-stop execution stays golden.
        """
        plan = lane.plan
        self._rng = random.Random(plan.seed)
        record = InjectionRecord(plan=plan, landed=False)
        journal: List[Tuple] = []
        self._undo_log = journal
        self.memory._journal = journal
        try:
            try:
                get_fault_model(plan.model).inject(
                    self, plan, record, top_frame, next_index
                )
            except TriageMasked as masked:
                lane.masked = True
                lane.reason = masked.reason
            except Exception:
                # A strike-time harness error (MemoryFaultError etc.): the
                # scalar path classifies it via containment, so peel.
                lane.reason = "inject_error"
            else:
                # Live strike: post-injection execution would diverge from
                # the golden stream — peel to the scalar fastpath.
                lane.reason = "live_strike"
        finally:
            for kind, target, key, before in reversed(journal):
                if kind == "reg":
                    target.values[key] = before
                elif kind == "word":
                    target.data[key:key + 4] = before.to_bytes(4, "little")
                else:  # "bytes" (tag strikes)
                    target.data[key:key + len(before)] = before
            self._undo_log = None
            self.memory._journal = None
            # Persistent-fault bindings must not leak into later lanes.
            self._stuck_fault = None
            self._stuck_mem_fault = None
            self._pending_control_fault = False
        lane.record = record

def sweep_batch(
    prepared,
    items: Sequence[Tuple[int, InjectionPlan]],
    config,
    classify: Callable,
) -> Tuple[List[Lane], List[Tuple[int, InjectionPlan, str]], List[Tuple],
           SweepInfo]:
    """Run one batch of ``(index, plan)`` trials through lane sweeps.

    ``classify(plan, interp)`` is the campaign's scalar trial driver
    (restore resolution, the run itself, trap/output classification,
    containment): each snapshot-window group of lanes is executed by
    handing its :class:`BatchedSweep` to ``classify`` under the *final*
    lane's plan, so the group's sweep doubles as that lane's scalar trial.

    Returns ``(masked_lanes, peeled, continued, info)``:

    * ``masked_lanes`` — non-final lanes whose Masked verdict was decided
      in-sweep (their ``record`` is the scalar trial's, byte for byte);
    * ``peeled`` — ``(index, plan, reason)`` trials that must run on the
      scalar fastpath;
    * ``continued`` — ``(index, TrialResult)`` for each group's final lane,
      classified by ``classify`` in-sweep;
    * ``info`` — the batch's accounting.

    Any abnormal sweep termination peels that window's lanes — the batched
    path may only ever be *faster* than scalar, never different.
    """
    info = SweepInfo()
    info.lanes = len(items)
    peeled: List[Tuple[int, InjectionPlan, str]] = []
    lanes: List[Lane] = []
    for index, plan in items:
        if lane_eligible(plan):
            lanes.append(Lane(index, plan))
        else:
            peeled.append((index, plan, "ineligible"))
    if not lanes:
        _finish_info(info, peeled, 0)
        return [], peeled, [], info
    lanes.sort(key=lambda lane: (lane.plan.cycle, lane.index))

    # Partition the lanes into snapshot windows: lanes sharing a nearest
    # snapshot ride one sweep, which fast-forwards to that snapshot and
    # executes only the window delta — the same delta the scalar path would
    # replay for the window's final lane alone.  One sweep for the whole
    # batch would instead span first-to-last injection cycle (most of the
    # golden run for uniformly drawn cycles) and lose to scalar triage
    # whenever the batch is smaller than ~2x the snapshot count.
    use_snapshots = (
        prepared.snapshots is not None and config.snapshot_every != 0
    )
    groups: List[List[Lane]] = []
    last_key = None
    for lane in lanes:
        snap = (
            prepared.snapshots.nearest(lane.plan.cycle)
            if use_snapshots else None
        )
        key = snap.cycle if snap is not None else 0
        if groups and key == last_key:
            groups[-1].append(lane)
        else:
            groups.append([lane])
            last_key = key

    masked: List[Lane] = []
    continued: List[Tuple] = []
    continued_live = 0
    for at, group in enumerate(groups):
        sweep = BatchedSweep(
            prepared.module,
            group,
            config=config.sim,
            guard_mode="detect",
            disabled_guards=set(prepared.noisy_guards),
        )
        if not sweep.fastpath:
            # Module/config property, identical for every group: peel the
            # whole batch up front.
            peeled.extend(
                (lane.index, lane.plan, "no_fastpath")
                for rest in groups[at:] for lane in rest
            )
            info.fallback = True
            _finish_info(info, peeled, continued_live)
            return masked, peeled, continued, info
        sweep._occupancy = prepared.occupancy
        sweep._trial_variants = prepared.compiled
        final = group[-1]
        with trace_mod.current().span(
            "batch.sweep", cat="batch", lanes=len(group),
            first_cycle=group[0].plan.cycle,
        ):
            try:
                trial = classify(final.plan, sweep)
            except Exception:
                # Sweep-level escape hatch (the classifier re-raises
                # anything that happened before the final lane committed):
                # peel this window's lanes.  The scalar reruns are
                # byte-identical by construction, so an aborted sweep costs
                # time, never correctness.
                peeled.extend(
                    (lane.index, lane.plan, "sweep_error") for lane in group
                )
                info.fallback = True
                continue
        from_cycle = 0
        if use_snapshots:
            snap = prepared.snapshots.nearest(final.plan.cycle)
            if snap is not None:
                from_cycle = snap.cycle
        info.vector_cycles += final.plan.cycle - from_cycle
        for lane in group[:-1]:
            if lane.masked:
                masked.append(lane)
            elif lane.record is None and not lane.reason:
                # Defensive: a sweep that classified without striking this
                # lane (cannot happen — lane cycles never exceed the final
                # lane's, and the injection check precedes each retire).
                peeled.append((lane.index, lane.plan, "undrained"))
            else:
                peeled.append((lane.index, lane.plan, lane.reason))
        if final.masked:
            info.masked += 1
        else:
            continued_live += 1
        continued.append((final.index, trial))
    info.masked += len(masked)
    _finish_info(info, peeled, continued_live)
    return masked, peeled, continued, info


def _finish_info(
    info: SweepInfo,
    peeled: List[Tuple[int, InjectionPlan, str]],
    continued_live: int,
) -> None:
    """Fold the peel reasons (and live continuations) into the info.

    Every lane lands in exactly one bucket: ``info.masked`` (verdict decided
    in-sweep) or ``info.divergence`` (peel reasons, plus ``continued`` for
    final lanes whose live injection committed in-sweep), so
    ``masked + sum(divergence) == lanes`` always holds.
    """
    divergence: Dict[str, int] = {}
    for _, _, reason in peeled:
        divergence[reason] = divergence.get(reason, 0) + 1
    if continued_live:
        divergence["continued"] = continued_live
    info.divergence = divergence
