"""Approximate out-of-order timing model.

Consumes the retired instruction stream from the interpreter and estimates
execution cycles for the Table II core: dependence-limited issue with a finite
issue width, a finite reorder buffer, per-opcode latencies, an L1-D cache, and
a branch predictor.  The interpreter's fast path calls it from a timed
compiled variant (:mod:`repro.sim.compiled`) and ``REPRO_FASTPATH=0`` from
the reference loop, at the same points in the same order, so both give the
same cycles bit for bit.

The model is a dataflow lower bound with structural constraints — the standard
"ideal fetch, finite width/ROB" approximation:

* each retired instruction issues no earlier than its operands are ready;
* no more than ``issue_width`` instructions issue per cycle (tracked as a
  monotonic front);
* an instruction cannot issue before the instruction ``rob_entries`` older
  than it has completed (ROB occupancy);
* loads add the miss penalty on an L1-D miss;
* mispredicted conditional branches stall the issue front by the mispredict
  penalty (flush + refill).

Relative runtimes between an original binary and its protected variants are
what the paper's Figure 12 reports, and those are preserved: shadow chains add
issue-bandwidth pressure (mostly hidden by the OoO window), while checks add
compare+branch work on the critical path.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional, Tuple

from ..ir.instructions import (
    Br,
    Call,
    CondBr,
    GuardEq,
    GuardRange,
    GuardValues,
    Instruction,
    IntrinsicCall,
    Load,
    Store,
)
from .cache import BranchPredictor, SetAssociativeCache
from .config import SimConfig

#: what the model needs of one static instruction: ids of the operands that
#: can carry a ready time, latency, issue slots, and the id its result is
#: ready under (None when it defines no value the model tracks)
Descriptor = Tuple[Tuple[int, ...], float, int, Optional[int]]


class TimingModel:
    """Online cycle estimator attached to an interpreter run."""

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self.config = cfg = config or SimConfig()
        self.dcache = SetAssociativeCache(cfg.l1d)
        self.branch_predictor = BranchPredictor()
        self._latencies = cfg.latencies
        self._slot_costs = cfg.slot_costs
        self._rob_entries = cfg.rob_entries
        self._issue_queue = cfg.issue_queue
        self._issue_width = cfg.issue_width
        self._miss_penalty = cfg.miss_penalty
        self._mispredict_penalty = cfg.mispredict_penalty
        #: per-instruction descriptors, built on first retirement; keyed by
        #: the instruction itself, which keeps its id from being reused
        self._descriptors: dict = {}
        self.reset()

    def reset(self) -> None:
        #: completion time (cycles, float) per live SSA value id
        self._ready: dict = {}
        #: total issue-slot units consumed (the bandwidth floor is slots/width)
        self._slots = 0.0
        #: no micro-op may issue before this time (mispredict flush point)
        self._serial_gate = 0.0
        #: completion times of the last `rob_entries` instructions
        self._rob: deque = deque()
        #: issue times of the last `issue_queue` micro-ops (scheduler window)
        self._iq: deque = deque()
        self._last_completion = 0.0
        self.retired = 0
        self.dcache.reset()
        self.branch_predictor.reset()

    # -- per-instruction descriptors ---------------------------------------------

    def _describe(self, instr: Instruction) -> Descriptor:
        """Build and remember ``instr``'s :data:`Descriptor`.

        Only instructions ever get a ready time (constants, arguments and
        globals are ready at 0), so other operands are dropped here.
        """
        latencies = self._latencies
        slot_costs = self._slot_costs
        result = id(instr) if instr.has_result else None
        if isinstance(instr, Load):
            latency, slots = latencies.get("load", 2), slot_costs.get("load", 2)
        elif isinstance(instr, Store):
            latency, slots = 1, slot_costs.get("store", 2)
        elif isinstance(instr, (Br, CondBr)):
            latency, slots = 1, 1
        elif isinstance(instr, GuardEq):
            # Guards are compare+branch sequences: the branches are highly
            # predictable (they fail essentially never), so latency is 1 but
            # they consume issue bandwidth.
            latency, slots = 1, slot_costs.get("guard_eq", 2)
        elif isinstance(instr, GuardRange):
            latency, slots = 1, slot_costs.get("guard_range", 4)
        elif isinstance(instr, GuardValues):
            key = "guard_values_1" if len(instr.expected) == 1 else "guard_values_2"
            latency, slots = 1, slot_costs.get(key, 2)
        elif isinstance(instr, Call):
            # The call's result is ready at its return (observe_return).
            latency, slots, result = 2, slot_costs.get("call", 2), None
        elif isinstance(instr, IntrinsicCall):
            latency = latencies.get(instr.intrinsic, 10)
            slots = slot_costs.get("intrinsic", 4)
        else:
            latency, slots = latencies.get(instr.opcode, 1), 1
        operands = tuple(
            id(op) for op in instr.operands if isinstance(op, Instruction)
        )
        descriptor = (operands, latency, slots, result)
        self._descriptors[instr] = descriptor
        return descriptor

    # -- public observation API (called by the interpreter) -----------------------

    def observe(self, instr: Instruction, extra_latency: float = 0) -> float:
        """Retire ``instr``: issue it and return its completion time.

        The issue time is the max of four constraints:

        * operand readiness,
        * the aggregate bandwidth floor (total slots so far / issue width) —
          out-of-order back-filling of stall gaps is allowed, but total
          throughput never exceeds the width,
        * the scheduler window (cannot issue before the micro-op
          ``issue_queue`` older issued) and the ROB (cannot issue before the
          micro-op ``rob_entries`` older completed),
        * the serial gate left behind by the last mispredict flush.

        Plain ALU/cast/compare/intrinsic retirements, guards and calls need
        nothing more; ``extra_latency`` carries a load's miss penalty.
        """
        descriptor = self._descriptors.get(instr) or self._describe(instr)
        operands, latency, slots, result = descriptor
        if extra_latency:
            latency += extra_latency
        ready = self._ready
        earliest = 0.0
        for op in operands:
            t = ready.get(op)
            if t is not None and t > earliest:
                earliest = t

        rob = self._rob
        iq = self._iq
        if len(rob) >= self._rob_entries:
            oldest_done = rob.popleft()
            if oldest_done > earliest:
                earliest = oldest_done
        if len(iq) >= self._issue_queue:
            window_gate = iq.popleft()
            if window_gate > earliest:
                earliest = window_gate
        if self._serial_gate > earliest:
            earliest = self._serial_gate

        width_floor = self._slots / self._issue_width
        issue_at = earliest if earliest > width_floor else width_floor
        self._slots += slots

        done = issue_at + latency
        iq.append(issue_at)
        rob.append(done)
        if done > self._last_completion:
            self._last_completion = done
        self.retired += 1
        if result is not None:
            ready[result] = done
        return done

    observe_guard = observe
    observe_call = observe

    def observe_load(self, instr: Load, address: int) -> None:
        hit = self.dcache.access(address)
        self.observe(instr, 0 if hit else self._miss_penalty)

    def observe_store(self, instr: Store, address: int) -> None:
        # Stores retire through the store buffer; a miss is buffered and does
        # not stall retirement, but it still occupies the cache.
        self.dcache.access(address)
        self.observe(instr)

    def observe_branch(self, instr: CondBr, taken: bool) -> None:
        done = self.observe(instr)
        if not self.branch_predictor.predict_and_update(id(instr), taken):
            # Flush: nothing issues until the branch resolves + refill delay,
            # and the bandwidth of those dead cycles is destroyed.
            stall_until = done + self._mispredict_penalty
            if stall_until > self._serial_gate:
                self._serial_gate = stall_until
            floor_slots = stall_until * self._issue_width
            if floor_slots > self._slots:
                self._slots = floor_slots
        elif taken:
            self._end_fetch_group()

    def observe_jump(self, instr: Br) -> None:
        """Unconditional branch: 1 slot, and it ends the fetch group."""
        self.observe(instr)
        self._end_fetch_group()

    def _end_fetch_group(self) -> None:
        """A taken branch ends the fetch group on a narrow front end: the
        rest of the current fetch cycle's slots are wasted.  This keeps tight
        loops throughput-bound, so duplicated work cannot hide entirely in
        front-end slack."""
        width = self._issue_width
        self._slots = math.ceil(self._slots / width) * width

    def observe_return(
        self, call_instr: Optional[Call], ret_value_ready: float = 0.0
    ) -> None:
        """A callee returned to ``call_instr``: its result is ready once the
        returned value is and no earlier than the current issue front."""
        if call_instr is not None and call_instr.has_result:
            current = self._ready.get(id(call_instr), 0.0)
            front = self._slots / self._issue_width
            self._ready[id(call_instr)] = max(current, ret_value_ready, front)

    def value_ready_time(self, value) -> float:
        return self._ready.get(id(value), 0.0)

    def observe_phi(self, phi: Instruction, chosen_value) -> None:
        """Phis are resolved at register rename: zero issue cost, and the phi
        result becomes ready when the *selected* incoming value is."""
        self._ready[id(phi)] = self._ready.get(id(chosen_value), 0.0)

    # -- results ----------------------------------------------------------------------

    @property
    def cycles(self) -> float:
        """Total estimated cycles for everything observed so far."""
        return max(
            self._slots / self._issue_width,
            self._last_completion,
            self._serial_gate,
        )
