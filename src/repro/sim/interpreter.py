"""IR interpreter with cycle counting, fault injection, and optional hooks.

This is the execution substrate standing in for the paper's gem5 setup:

* **atomic model** — each retired IR instruction advances the cycle counter by
  one; fault-coverage campaigns use this mode (fast), matching the paper's use
  of gem5's atomic CPU for coverage runs;
* **timing model** — attach a :class:`~repro.sim.timing.TimingModel` and the
  run also produces an out-of-order cycle estimate (the paper's Figure 12
  performance numbers come from the detailed CPU; ours from this model);
* **fault injection** — pass an :class:`~repro.sim.faults.InjectionPlan`; at
  the planned cycle a random occupied physical register is chosen and one bit
  flipped (see :mod:`repro.sim.regfile`);
* **hooks** — a value hook receives every (instruction, value) pair produced,
  which is how value profiling (:mod:`repro.profiling`) observes the program.

Guards run in one of two modes: ``detect`` raises :class:`GuardTrap` on the
first failure (a fault-injection trial ends in SWDetect), while ``count``
records failures and continues (used on fault-free runs to measure the
false-positive rate, modelling the paper's recover-once-then-ignore policy).
"""

from __future__ import annotations

import math
import random
import struct
import time
from typing import Callable, Dict, List, Optional, Sequence

from .. import settings
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    GetElementPtr,
    GuardEq,
    GuardRange,
    GuardValues,
    ICmp,
    Instruction,
    IntrinsicCall,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.types import F32, FloatType, IntType, PointerType
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from ..obs.metrics import global_registry as _obs_registry
from . import ops
from .compiled import STOP, UNWIND, CompiledBlock, compile_variants
from .config import SimConfig
from .events import (
    ArithmeticTrap,
    GuardStats,
    GuardTrap,
    HarnessContainedTrap,
    MemoryTrap,
    RunResult,
    SimTrap,
    StackOverflowTrap,
    TimeoutTrap,
)
from .faults import InjectionPlan, InjectionRecord, flip_bit, get_fault_model
from .memfaults import OCCUPANCY_MODELS
from .memory import Memory, Segment
from .regfile import RegisterFile
from .snapshot import (
    ConvergenceWatch,
    Snapshot,
    SnapshotRecorder,
    SnapshotStore,
    TriageMasked,
    value_dead_after,
)
from .timing import TimingModel

_MISSING = object()
_F32_STRUCT = struct.Struct("<f")

# The evaluator tables live in :mod:`repro.sim.ops`, shared with the fast
# path (:mod:`repro.sim.compiled`); the reference loop reads them through
# these module-level names because its locals shadow ``ops``.
_INT_BINOPS = ops.INT_BINOP_EVAL
_FLOAT_BINOPS = ops.FLOAT_BINOP_EVAL
_ICMP = ops.ICMP_EVAL
_FCMP = ops.FCMP_EVAL
_INTRINSICS_IMPL = ops.INTRINSIC_EVAL


def _retime_trap(trap, cycle: int):
    """Rebuild a closure-raised trap (``cycle=-1``) with the real cycle.

    :class:`SimTrap` formats its message at construction, so re-timing must
    reconstruct rather than mutate.
    """
    cls = trap.__class__
    if cls is MemoryTrap:
        return MemoryTrap(trap.kind, trap.address, cycle)
    if cls is ArithmeticTrap:
        return ArithmeticTrap(trap.operation, cycle)
    if cls is GuardTrap:
        return GuardTrap(trap.guard_id, trap.guard_kind, cycle)
    if cls is StackOverflowTrap:
        return StackOverflowTrap(cycle)
    trap.cycle = cycle  # pragma: no cover - no other trap carries -1
    return trap


class Frame:
    """One activation record.

    The ``ret_*`` fields are the fast path's pre-resolved return linkage
    (where to resume in the caller's compiled code); the reference loop
    ignores them.
    """

    __slots__ = ("function", "values", "block", "prev_block", "index",
                 "call_instr", "stack_mark", "active",
                 "ret_cb", "ret_idx", "ret_has_result", "ret_key")

    def __init__(self, function: Function, call_instr: Optional[Call], stack_mark: int) -> None:
        self.function = function
        self.values: Dict[int, object] = {}
        self.block: BasicBlock = function.entry
        self.prev_block: Optional[BasicBlock] = None
        self.index = 0
        self.call_instr = call_instr
        self.stack_mark = stack_mark
        self.active = True
        self.ret_cb = None
        self.ret_idx = 0
        self.ret_has_result = False
        self.ret_key = None


class Interpreter:
    """Executes a module; one instance may run many times (segments are
    remapped per run, so runs are independent)."""

    def __init__(
        self,
        module: Module,
        config: Optional[SimConfig] = None,
        guard_mode: str = "detect",
        value_hook: Optional[Callable[[Instruction, object], None]] = None,
        timing: Optional[TimingModel] = None,
        disabled_guards: Optional[set] = None,
        fastpath: Optional[bool] = None,
    ) -> None:
        if guard_mode not in ("detect", "count"):
            raise ValueError("guard_mode must be 'detect' or 'count'")
        self.module = module
        self.config = config or SimConfig()
        self.guard_mode = guard_mode
        self._guard_detect = guard_mode == "detect"
        #: compiled-dispatch fast path (see :mod:`repro.sim.compiled`);
        #: timing-model runs always use the reference loop, which observes
        #: every retired instruction (the detailed-CPU analogue).
        self.fastpath = (
            settings.FASTPATH.read() if fastpath is None else fastpath
        )
        #: guard ids whose failures never raise — the paper's recover-once
        #: policy: a check that also fails after recovery (i.e. in the golden
        #: run) stops triggering recoveries
        self.disabled_guards = disabled_guards or set()
        self.value_hook = value_hook
        self.timing = timing
        self.memory: Optional[Memory] = None
        self.global_segments: Dict[str, Segment] = {}
        self._global_addr: Dict[str, int] = {}
        self.cycle = 0
        self.guard_stats = GuardStats()
        self.injection_record: Optional[InjectionRecord] = None
        self._regfile: Optional[RegisterFile] = None
        self._rng: Optional[random.Random] = None
        self._pending_control_fault = False
        self._control_fault_fired = False
        #: live stuck-at fault binding: (frame, value_key, value_obj, bit,
        #: stuck, deadline_cycle); see StuckAtFault
        self._stuck_fault = None
        #: live memory stuck-at binding: (seg, offset, bit, stuck,
        #: deadline_cycle); see MemStuckAtFault
        self._stuck_mem_fault = None
        #: golden-run OccupancyMap, the only source of the memory-hierarchy
        #: fault models' targets and verdicts (run_trial attaches it from
        #: the PreparedWorkload; injecting one of them without it raises)
        self._occupancy = None
        #: undo journal for register/byte-level fault mutations, mirroring
        #: ``Memory._journal`` for word strikes — only the batched lane sweep
        #: (:mod:`repro.sim.batched`) ever sets it; ``None`` is free
        self._undo_log = None
        # Fast-path execution state (see _run_compiled).
        self._frames: List[Frame] = []
        self._frame: Optional[Frame] = None
        self._stack_sp = 0
        self._stack_limit = 0
        self._max_depth = self.config.max_call_depth
        self._mem_locate = None
        #: store-side address translation; normally the same bound method as
        #: _mem_locate, swapped independently by the occupancy capture pass
        self._mem_store_locate = None
        self._cm = None
        self._untracked_cm = None
        self._rf_log: List = []
        #: lazy-regfile writes dropped before the log's first entry (restored
        #: runs start mid-history; see _materialize_regfile)
        self._rf_base = 0
        #: short-circuit provably-dead flips to TriageMasked (trial runs only)
        self._triage = False
        #: golden snapshot cycle at which the last run re-converged with the
        #: golden run and was cut off (see ConvergenceWatch), else None
        self.converged_at: Optional[int] = None
        self._resume_cb = None
        self._resume_idx = 0
        self._ret_value: object = None
        #: intra-superblock progress marker (see :func:`compiled._build_fused`)
        self._sbk = 0

    # -- setup ---------------------------------------------------------------------

    def _bind_globals(self, inputs: Optional[Dict[str, Sequence]]) -> None:
        assert self.memory is not None
        self.global_segments = {}
        self._global_addr = {}
        for gv in self.module.globals.values():
            seg = self.memory.map_segment(gv.name, gv.size_bytes)
            self.global_segments[gv.name] = seg
            self._global_addr[gv.name] = seg.base
            data = None
            if inputs is not None and gv.name in inputs:
                data = inputs[gv.name]
            elif gv.initializer is not None:
                data = gv.initializer
            if data is not None:
                if len(data) > gv.count:
                    raise ValueError(
                        f"input for @{gv.name} has {len(data)} elements, max {gv.count}"
                    )
                self.memory.write_array(seg, gv.elem_type, data)

    def read_global(self, name: str) -> List:
        """Read a global array's contents after a run (harness output API)."""
        gv = self.module.global_var(name)
        seg = self.global_segments[name]
        assert self.memory is not None
        return self.memory.read_array(seg, gv.elem_type, gv.count)

    # -- fault injection --------------------------------------------------------------

    def _liveness_for(self, fn: Function):
        """Static liveness, cached on the function (shared across trials)."""
        cache = getattr(fn, "_liveness_cache", None)
        if cache is None:
            from ..analysis.liveness import compute_liveness

            cache = compute_liveness(fn)
            fn._liveness_cache = cache
        return cache

    def _slot_is_live(self, slot) -> bool:
        """Will the value in this register be read again (approximately)?

        True when the owning frame is active and the value is statically live
        into the frame's current block, or is used later within that block.
        """
        frame: Frame = slot.frame
        if not frame.active or slot.value_key not in frame.values:
            return False
        value = slot.value_obj
        block = frame.block
        liveness = self._liveness_for(frame.function)
        if value in liveness.live_in.get(block, ()):  # pragma: no branch
            return True
        instrs = block.instructions
        for user, _ in value.uses:
            if user.parent is block:
                try:
                    if instrs.index(user) >= frame.index:
                        return True
                except ValueError:  # pragma: no cover - stale use list
                    continue
        return False

    def _pick_injection_slot(self):
        """Live-biased random occupied register slot (None before any retire).

        The RNG call sequence lives in :meth:`RegisterFile.pick_biased`; the
        fault models call this at injection time so every model shares the
        paper's site-selection distribution.
        """
        assert self._regfile is not None and self._rng is not None
        return self._regfile.pick_biased(
            self._rng,
            self.config.injection_recent_window,
            self.config.injection_live_bias,
            self._slot_is_live,
        )

    def _triage_short_circuit(self) -> None:
        """End the trial as Masked now (flip landed dead or nowhere)."""
        if self._triage:
            raise TriageMasked()

    def _triage_flip(self, slot, top_frame, next_index: int) -> None:
        """Short-circuit a live flip whose value is provably never read.

        ``top_frame``/``next_index`` locate the next instruction to execute
        (the top frame's ``index`` field is only synced lazily); they feed
        :func:`~repro.sim.snapshot.value_dead_after`, and a flip proven
        unreadable raises :class:`TriageMasked` *after* the injection record
        was filled exactly as a full run would — the short-circuit changes
        when the trial ends, never what it records.
        """
        if not self._triage or top_frame is None:
            return
        frame: Frame = slot.frame
        ni = next_index if frame is top_frame else frame.index
        if ni >= 0 and value_dead_after(
            self._liveness_for(frame.function), frame.block, ni, slot.value_obj
        ):
            raise TriageMasked()

    def _do_injection(
        self,
        plan: InjectionPlan,
        top_frame: Optional[Frame] = None,
        next_index: int = -1,
    ) -> int:
        """Perform (or re-apply) the planned fault at the current cycle.

        Dispatches to the plan's :class:`~repro.sim.faults.FaultModel`.
        Returns the cycle at which the fault should fire again (stuck-at
        faults re-force their bit on a cadence) or -1 for one-shot faults —
        the run loops feed this back into their pending-injection check.
        """
        if self.injection_record is not None:
            # Already injected: this is a re-fire (stuck-at cadence).
            return get_fault_model(plan.model).reapply(self, plan)
        if self._occupancy is None and plan.model in OCCUPANCY_MODELS:
            # Raised before the record exists, so no containment boundary
            # can turn the missing map into a classified trial.
            raise ValueError(
                f"fault model {plan.model!r} needs the golden-run occupancy "
                f"map, and this interpreter has none"
            )
        # Wall-clock stamp of the first injection, read only by the tracing
        # sidecar (replay/detect phase split) — never by trial classification.
        self.trace_inject_ns = time.perf_counter_ns()
        record = InjectionRecord(plan=plan, landed=False)
        self.injection_record = record
        self._guard_armed = True
        if plan.kind == "control":
            # Arm a branch-target corruption: the next branch jumps wrong.
            # Never triaged: the wrong-target draw happens later, so a dead
            # verdict here could not be proven.
            self._pending_control_fault = True
            record.value_name = "<branch-target>"
            record.type_name = "ptr"
            return -1
        assert self._regfile is not None and self._rng is not None
        return get_fault_model(plan.model).inject(
            self, plan, record, top_frame, next_index
        )

    # -- execution -----------------------------------------------------------------------

    def run(
        self,
        entry: str = "main",
        args: Sequence[object] = (),
        inputs: Optional[Dict[str, Sequence]] = None,
        injection: Optional[InjectionPlan] = None,
        max_instructions: int = 50_000_000,
        restore_from: Optional[Snapshot] = None,
        capture: Optional[SnapshotRecorder] = None,
        triage: bool = False,
        converge: Optional[SnapshotStore] = None,
    ) -> RunResult:
        """Execute ``entry`` to completion.

        Raises a :class:`~repro.sim.events.SimTrap` subclass on any
        run-terminating event (memory trap, arithmetic trap, guard detection,
        timeout); returns a :class:`~repro.sim.events.RunResult` otherwise.

        Dispatches to the compiled fast path unless a timing model is
        attached (the detailed-CPU analogue observes every retired
        instruction, so it keeps the reference loop) or the fast path is
        disabled (``fastpath=False`` / ``REPRO_FASTPATH=0``).  Both paths are
        bit-identical — same results, traps, guard statistics, and injection
        behaviour.

        ``restore_from`` fast-forwards an injection run from a golden-run
        :class:`~repro.sim.snapshot.Snapshot` (bit-identical by
        construction); ``capture`` records snapshots during a fault-free run;
        ``triage`` short-circuits provably-dead flips by raising
        :class:`~repro.sim.snapshot.TriageMasked`; ``converge`` ends an
        injection run at the first of those golden snapshots its state
        re-converges with (:class:`~repro.sim.snapshot.ConvergenceWatch`;
        the caller guarantees ``max_instructions`` covers the golden run).
        All four are fast-path features: on the reference loop (or with a
        value hook, whose callbacks would be skipped over the restored
        prefix) they are silently ignored, preserving from-scratch
        semantics.
        """
        fn = self.module.function(entry)
        if len(args) != len(fn.args):
            raise ValueError(
                f"@{entry} expects {len(fn.args)} args, got {len(args)}"
            )
        use_fast = self.fastpath and self.timing is None
        if not use_fast or self.value_hook is not None:
            restore_from = None
            capture = None
            converge = None
        if restore_from is not None and (
            injection is None or restore_from.cycle >= injection.cycle
        ):
            restore_from = None
        if injection is None or capture is not None or (
            converge is not None and converge.end is None
        ):
            converge = None
        self._triage = bool(triage) and injection is not None
        self.converged_at = None
        registry = _obs_registry()
        if not registry.enabled:
            return self._dispatch_contained(
                use_fast, fn, args, inputs, injection, max_instructions,
                capture, restore_from, converge,
            )
        # Observability: per-run accounting only (never per-instruction), so
        # the instrumented path stays within noise of the bare one.  Both
        # dispatch paths report through this single funnel, which keeps the
        # fast path's events structurally identical to the reference path's.
        path = "fastpath" if use_fast else "reference"
        try:
            result = self._dispatch_contained(
                use_fast, fn, args, inputs, injection, max_instructions,
                capture, restore_from, converge,
            )
        except SimTrap as trap:
            registry.counter(f"sim.trap.{trap.__class__.__name__}").inc()
            self._record_run_metrics(registry, path)
            raise
        except TriageMasked:
            registry.counter("sim.triaged").inc()
            self._record_run_metrics(registry, path)
            raise
        self._record_run_metrics(registry, path)
        return result

    def _dispatch_contained(
        self,
        use_fast: bool,
        fn: Function,
        args: Sequence[object],
        inputs: Optional[Dict[str, Sequence]],
        injection: Optional[InjectionPlan],
        max_instructions: int,
        capture: Optional[SnapshotRecorder],
        restore_from: Optional[Snapshot],
        converge: Optional[SnapshotStore] = None,
    ) -> RunResult:
        """Dispatch to a run loop inside the crash-containment boundary.

        Injected corruption can drive evaluator code into arbitrary Python
        exceptions (``RecursionError`` from a corrupted call target,
        ``struct.error``/``OverflowError`` from out-of-range packs, ...).
        Once a fault has landed, any non-trap exception becomes a classified
        :class:`HarnessContainedTrap` instead of escaping the trial; before
        injection the run is golden, so exceptions there re-raise unchanged —
        they are harness bugs, not fault effects.
        """
        try:
            if use_fast:
                return self._run_compiled(
                    fn, args, inputs, injection, max_instructions,
                    capture, restore_from, converge,
                )
            return self._run_reference(
                fn, args, inputs, injection, max_instructions
            )
        except (SimTrap, TriageMasked):
            raise
        except Exception as err:
            if injection is None or self.injection_record is None:
                raise
            raise HarnessContainedTrap(
                type(err).__name__, str(err), self.cycle
            ) from err

    def _record_run_metrics(self, registry, path: str) -> None:
        registry.counter(f"sim.runs.{path}").inc()
        registry.counter("sim.instructions").inc(self.cycle)
        registry.counter("sim.guard_evaluations").inc(self.guard_stats.evaluations)
        registry.counter("sim.guard_failures").inc(self.guard_stats.total_failures)

    def _setup_run(self, inputs, injection) -> int:
        """Shared run prologue; returns the pending injection cycle (or -1)."""
        self.memory = Memory()
        self._bind_globals(inputs)
        stack_seg = self.memory.map_segment("__stack__", self.config.stack_segment_bytes)
        self._stack_sp = stack_seg.base
        self._stack_limit = stack_seg.base + stack_seg.size

        self.cycle = 0
        self.guard_stats = GuardStats()
        self.injection_record = None
        self.trace_inject_ns = None
        # Guards only *raise* (in detect mode) once the fault has been
        # injected: a check that fails before any fault exists is a false
        # positive, which the paper's recover-once policy absorbs instead of
        # aborting the run.  Without an injection plan guards are always armed.
        self._guard_armed = injection is None
        self._pending_control_fault = False
        self._control_fault_fired = False
        self._stuck_fault = None
        self._stuck_mem_fault = None
        inject_cycle = -1
        if injection is not None:
            self._regfile = RegisterFile(self.config.phys_int_registers)
            self._rng = random.Random(injection.seed)
            inject_cycle = injection.cycle
        else:
            self._regfile = None
            self._rng = None
        return inject_cycle

    def _run_reference(
        self,
        fn: Function,
        args: Sequence[object],
        inputs: Optional[Dict[str, Sequence]],
        injection: Optional[InjectionPlan],
        max_instructions: int,
    ) -> RunResult:
        """The original per-instruction dispatch loop.

        Retained as the semantic ground truth for the compiled fast path and
        as the only loop that drives a :class:`TimingModel` (its observe
        callbacks need every retired instruction).
        """
        inject_cycle = self._setup_run(inputs, injection)
        stack_sp = self._stack_sp
        stack_limit = self._stack_limit

        track_registers = self._regfile is not None
        regfile = self._regfile
        timing = self.timing
        value_hook = self.value_hook
        guard_detect = self.guard_mode == "detect"
        disabled_guards = self.disabled_guards
        memory = self.memory

        frame = Frame(fn, None, stack_sp)
        for formal, actual in zip(fn.args, args):
            frame.values[id(formal)] = actual
        frames: List[Frame] = [frame]

        fetch = self._fetch
        return_value: object = None

        while True:
            block_instrs = frame.block.instructions
            idx = frame.index
            if idx >= len(block_instrs):  # pragma: no cover - verifier prevents
                raise RuntimeError(f"fell off block %{frame.block.name}")
            instr = block_instrs[idx]
            frame.index = idx + 1

            self.cycle += 1
            cycle = self.cycle
            if cycle > max_instructions:
                raise TimeoutTrap(max_instructions, cycle)
            if inject_cycle >= 0 and cycle >= inject_cycle:
                # The loop keeps the stack pointer in a local for speed; the
                # stack_frame fault model reads it off the interpreter.
                self._stack_sp = stack_sp
                inject_cycle = self._do_injection(injection, frame, idx)  # type: ignore[arg-type]

            cls = instr.__class__

            # ---- arithmetic / logic -------------------------------------------
            if cls is BinaryOp:
                ops = instr._operands
                a = fetch(frame, ops[0])
                b = fetch(frame, ops[1])
                opcode = instr.opcode
                fn_int = _INT_BINOPS.get(opcode)
                try:
                    if fn_int is not None:
                        result = fn_int(a, b, instr.type)
                    else:
                        result = _FLOAT_BINOPS[opcode](a, b)
                except ZeroDivisionError:
                    raise ArithmeticTrap(opcode, cycle) from None
                frame.values[id(instr)] = result
                if track_registers:
                    regfile.write(frame, instr)
                if value_hook is not None:
                    value_hook(instr, result)
                if timing is not None:
                    timing.observe(instr)
                continue

            if cls is Load:
                addr = fetch(frame, instr._operands[0])
                try:
                    result = memory.load(instr.type, addr)
                except MemoryTrap as trap:
                    raise MemoryTrap(trap.kind, trap.address, cycle) from None
                frame.values[id(instr)] = result
                if track_registers:
                    regfile.write(frame, instr)
                if value_hook is not None:
                    value_hook(instr, result)
                if timing is not None:
                    timing.observe_load(instr, addr)
                continue

            if cls is Store:
                ops = instr._operands
                value = fetch(frame, ops[0])
                addr = fetch(frame, ops[1])
                try:
                    memory.store(ops[0].type, addr, value)
                except MemoryTrap as trap:
                    raise MemoryTrap(trap.kind, trap.address, cycle) from None
                if timing is not None:
                    timing.observe_store(instr, addr)
                continue

            if cls is GetElementPtr:
                ops = instr._operands
                base = fetch(frame, ops[0])
                index = fetch(frame, ops[1])
                result = (base + index * instr.elem_size) & 0xFFFFFFFFFFFFFFFF
                frame.values[id(instr)] = result
                if track_registers:
                    regfile.write(frame, instr)
                if timing is not None:
                    timing.observe(instr)
                continue

            if cls is ICmp:
                ops = instr._operands
                a = fetch(frame, ops[0])
                b = fetch(frame, ops[1])
                result = 1 if _ICMP[instr.predicate](a, b, ops[0].type) else 0
                frame.values[id(instr)] = result
                if track_registers:
                    regfile.write(frame, instr)
                if value_hook is not None:
                    value_hook(instr, result)
                if timing is not None:
                    timing.observe(instr)
                continue

            if cls is CondBr:
                cond = fetch(frame, instr._operands[0])
                taken = bool(cond & 1)
                target = instr.if_true if taken else instr.if_false
                if self._pending_control_fault:
                    target = self._corrupt_target(frame, target)
                if timing is not None:
                    timing.observe_branch(instr, taken)
                self._enter_block(frame, target, track_registers, value_hook, timing)
                # timeout/injection bookkeeping done inside _enter_block via cycles
                if inject_cycle >= 0 and self.cycle >= inject_cycle:
                    inject_cycle = self._do_injection(injection, frame, frame.index)  # type: ignore[arg-type]
                continue

            if cls is Br:
                target = instr.target
                if self._pending_control_fault:
                    target = self._corrupt_target(frame, target)
                if timing is not None:
                    timing.observe_jump(instr)
                self._enter_block(frame, target, track_registers, value_hook, timing)
                if inject_cycle >= 0 and self.cycle >= inject_cycle:
                    inject_cycle = self._do_injection(injection, frame, frame.index)  # type: ignore[arg-type]
                continue

            if cls is Cast:
                result = self._eval_cast(instr, fetch(frame, instr._operands[0]))
                frame.values[id(instr)] = result
                if track_registers:
                    regfile.write(frame, instr)
                if value_hook is not None:
                    value_hook(instr, result)
                if timing is not None:
                    timing.observe(instr)
                continue

            if cls is Select:
                ops = instr._operands
                cond = fetch(frame, ops[0])
                result = fetch(frame, ops[1]) if (cond & 1) else fetch(frame, ops[2])
                frame.values[id(instr)] = result
                if track_registers:
                    regfile.write(frame, instr)
                if value_hook is not None:
                    value_hook(instr, result)
                if timing is not None:
                    timing.observe(instr)
                continue

            if cls is FCmp:
                ops = instr._operands
                a = fetch(frame, ops[0])
                b = fetch(frame, ops[1])
                result = 1 if _FCMP[instr.predicate](a, b) else 0
                frame.values[id(instr)] = result
                if track_registers:
                    regfile.write(frame, instr)
                if value_hook is not None:
                    value_hook(instr, result)
                if timing is not None:
                    timing.observe(instr)
                continue

            if cls is IntrinsicCall:
                argv = [fetch(frame, op) for op in instr._operands]
                result = _INTRINSICS_IMPL[instr.intrinsic](*argv)
                frame.values[id(instr)] = result
                if track_registers:
                    regfile.write(frame, instr)
                if value_hook is not None:
                    value_hook(instr, result)
                if timing is not None:
                    timing.observe(instr)
                continue

            # ---- guards ----------------------------------------------------------
            if cls is GuardEq:
                ops = instr._operands
                self.guard_stats.evaluations += 1
                if fetch(frame, ops[0]) != fetch(frame, ops[1]):
                    self.guard_stats.record_failure(instr.guard_id)
                    if (
                        guard_detect
                        and self._guard_armed
                        and instr.guard_id not in disabled_guards
                    ):
                        raise GuardTrap(instr.guard_id, "eq", cycle)
                if timing is not None:
                    timing.observe_guard(instr)
                continue

            if cls is GuardRange:
                ops = instr._operands
                self.guard_stats.evaluations += 1
                v = fetch(frame, ops[0])
                lo = ops[1].value
                hi = ops[2].value
                failed = not (lo <= v <= hi)
                if isinstance(v, float) and math.isnan(v):
                    failed = True
                if failed:
                    self.guard_stats.record_failure(instr.guard_id)
                    if (
                        guard_detect
                        and self._guard_armed
                        and instr.guard_id not in disabled_guards
                    ):
                        raise GuardTrap(instr.guard_id, "range", cycle)
                if timing is not None:
                    timing.observe_guard(instr)
                continue

            if cls is GuardValues:
                ops = instr._operands
                self.guard_stats.evaluations += 1
                v = fetch(frame, ops[0])
                ok = any(v == c.value for c in ops[1:])
                if not ok:
                    self.guard_stats.record_failure(instr.guard_id)
                    if (
                        guard_detect
                        and self._guard_armed
                        and instr.guard_id not in disabled_guards
                    ):
                        raise GuardTrap(instr.guard_id, "values", cycle)
                if timing is not None:
                    timing.observe_guard(instr)
                continue

            # ---- calls / returns --------------------------------------------------
            if cls is Call:
                callee = instr.callee
                if len(frames) >= self.config.max_call_depth:
                    raise StackOverflowTrap(cycle)
                if timing is not None:
                    timing.observe_call(instr)
                new_frame = Frame(callee, instr, stack_sp)
                for formal, op in zip(callee.args, instr._operands):
                    new_frame.values[id(formal)] = fetch(frame, op)
                frames.append(new_frame)
                frame = new_frame
                continue

            if cls is Ret:
                value = fetch(frame, instr._operands[0]) if instr._operands else None
                frame.active = False
                stack_sp = frame.stack_mark
                frames.pop()
                if not frames:
                    return_value = value
                    break
                caller = frames[-1]
                call_instr = frame.call_instr
                if call_instr is not None and call_instr.has_result:
                    caller.values[id(call_instr)] = value
                    if track_registers:
                        regfile.write(caller, call_instr)
                    if value_hook is not None:
                        value_hook(call_instr, value)
                if timing is not None:
                    timing.observe_return(
                        call_instr,
                        timing.value_ready_time(instr._operands[0])
                        if instr._operands else 0.0,
                    )
                frame = caller
                continue

            if cls is Alloca:
                size = instr.size_bytes
                aligned = (stack_sp + 7) & ~7
                if aligned + size > stack_limit:
                    raise StackOverflowTrap(cycle)
                frame.values[id(instr)] = aligned
                stack_sp = aligned + size
                if track_registers:
                    regfile.write(frame, instr)
                if timing is not None:
                    timing.observe(instr)
                continue

            raise RuntimeError(f"unhandled instruction {instr.format()}")  # pragma: no cover

        return RunResult(
            return_value=return_value,
            instructions=self.cycle,
            guard_stats=self.guard_stats,
            injection=self.injection_record,
            cycles=timing.cycles if timing is not None else None,
        )

    def _run_compiled(
        self,
        fn: Function,
        args: Sequence[object],
        inputs: Optional[Dict[str, Sequence]],
        injection: Optional[InjectionPlan],
        max_instructions: int,
        capture: Optional[SnapshotRecorder] = None,
        restore: Optional[Snapshot] = None,
        converge: Optional[SnapshotStore] = None,
    ) -> RunResult:
        """Drive the pre-compiled step closures (see :mod:`repro.sim.compiled`).

        Bit-identical to :meth:`_run_reference`; the loop only handles
        sequencing (cycle count, timeout, injection timing, jumps with phi
        moves, call/return unwinding) while each closure performs one
        instruction.  ``self.cycle`` is synced at injection points, trap
        exits, and run end; closures raise traps with ``cycle=-1`` and the
        loop re-times them.

        ``capture`` snapshots the full state whenever the cycle counter
        passes its due mark (checked at the loop top only, so a snapshot may
        overshoot the cadence by one superblock — restore uses the stored
        cycle, so this is harmless).  ``restore`` replaces the from-scratch
        prologue with a deep-copied snapshot of the golden run, resuming at
        its recorded compiled block; tracked variants are compiled either
        way, so snapshot block references stay valid here.  ``converge``
        takes the capture hook's place in an injection run: the same due
        test compares the trial with each golden snapshot it reaches once
        the fault has landed, and a match ends the run in the golden run's
        end state.
        """
        track = injection is not None or capture is not None
        hooked = self.value_hook is not None
        # Injection *commits* at most once; everything the tracked variant
        # records after that instant is dead bookkeeping, so the loop swaps in
        # the untracked variant the moment the fault lands (for a batched lane
        # sweep: the moment the final lane's fault lands — the rolled-back
        # strikes before it leave ``injection_record`` unset and keep tracking
        # alive for the next lane's register-file materialization).
        if injection is not None:
            cm, self._untracked_cm = compile_variants(
                self.module, hooked, (True, False)
            )
        else:
            (cm,) = compile_variants(self.module, hooked, (track,))
            self._untracked_cm = None
        self._cm = cm
        self._rf_log = []
        self._rf_base = 0
        self._max_depth = self.config.max_call_depth
        self._stuck_fault = None
        self._stuck_mem_fault = None

        if restore is not None:
            cb, idx, cycle = restore.install(self, injection)
            inject_cycle = injection.cycle  # type: ignore[union-attr]
            frame = self._frame
        else:
            inject_cycle = self._setup_run(inputs, injection)
            self._mem_locate = self.memory._locate
            self._mem_store_locate = self.memory._locate
            bind_occupancy = getattr(capture, "bind_occupancy", None)
            if bind_occupancy is not None:
                # Occupancy capture pass: the recorder wraps both address
                # translators with its access-tracking hooks.
                self._mem_locate, self._mem_store_locate = bind_occupancy(self)

            frame = Frame(fn, None, self._stack_sp)
            for formal, actual in zip(fn.args, args):
                frame.values[id(formal)] = actual
            self._frames = [frame]
            self._frame = frame
            self._ret_value = None
            self._resume_cb = None
            self._resume_idx = 0

            cb = cm.functions[fn].entry_cb
            idx = 0
            cycle = 0
        code = cb.code
        fused = cb.fused
        vals = frame.values
        if converge is not None:
            capture = ConvergenceWatch(converge, inject_cycle, self._occupancy)
        snap_due = capture.next_due if capture is not None else (1 << 62)

        try:
            while True:
                if snap_due <= cycle:
                    snap_due = capture.take(self, cb, idx, cycle)
                    if snap_due < 0:
                        # Re-converged: the watch installed the golden end.
                        cycle = self.cycle
                        break
                sb = fused[idx]
                if sb is not None and cycle + sb[1] <= max_instructions and (
                    inject_cycle < 0 or cycle + sb[1] < inject_cycle
                ):
                    # Superblock fast path: one call executes the whole
                    # straight-line run (possibly including the block
                    # terminator, whose return value dispatches below).
                    # Entered only when neither the pending injection nor
                    # the instruction budget falls inside the run —
                    # otherwise single-step so the per-instruction event
                    # checks fire at the exact cycle.
                    try:
                        ret = sb[0](self, frame, vals)
                    except Exception:
                        # Re-time from the intra-run progress marker; the
                        # outer handler reads the corrected local (for traps
                        # and contained harness exceptions alike).
                        cycle += self._sbk
                        raise
                    cycle += sb[1]
                    if ret is None:
                        idx += sb[1]
                        continue
                else:
                    cycle += 1
                    if cycle > max_instructions:
                        raise TimeoutTrap(max_instructions, cycle)
                    if 0 <= inject_cycle <= cycle:
                        self.cycle = cycle
                        frame.index = idx + 1
                        self._materialize_regfile()
                        inject_cycle = self._do_injection(injection, frame, idx)  # type: ignore[arg-type]
                        if track and self.injection_record is not None:
                            track = False
                            cb = self._switch_to_untracked(cb)
                            code = cb.code
                            fused = cb.fused
                    step = code[idx]
                    idx += 1
                    ret = step(self, frame, vals)
                    if ret is None:
                        continue
                if ret.__class__ is CompiledBlock:
                    prev = frame.block
                    frame.block = ret.block
                    frame.prev_block = prev
                    commit = ret.phi_stages.get(prev)
                    if commit is None:
                        commit = ret.phi_fallback
                    if commit is not None:
                        commit_fn, n = commit
                        commit_fn(self, frame, vals)
                        cycle += n
                    cb = ret
                    code = ret.code
                    fused = ret.fused
                    idx = ret.n_phis
                    if 0 <= inject_cycle <= cycle:
                        self.cycle = cycle
                        frame.index = idx
                        self._materialize_regfile()
                        inject_cycle = self._do_injection(injection, frame, idx)  # type: ignore[arg-type]
                        if track and self.injection_record is not None:
                            track = False
                            cb = self._switch_to_untracked(cb)
                            code = cb.code
                            fused = cb.fused
                    continue
                if ret is UNWIND:
                    frame = self._frame
                    vals = frame.values
                    cb = self._resume_cb
                    code = cb.code
                    fused = cb.fused
                    idx = self._resume_idx
                    continue
                break  # STOP: entry function returned
        except SimTrap as trap:
            self.cycle = cycle
            if trap.cycle < 0:
                raise _retime_trap(trap, cycle) from None
            raise
        except Exception:
            # Sync the cycle so the containment boundary stamps any
            # HarnessContainedTrap with the true progress point.
            self.cycle = cycle
            raise

        self.cycle = cycle
        return RunResult(
            return_value=self._ret_value,
            instructions=cycle,
            guard_stats=self.guard_stats,
            injection=self.injection_record,
            cycles=None,
        )

    # -- helpers ---------------------------------------------------------------------------

    def _materialize_regfile(self) -> None:
        """Replay the lazy write log into the real register file.

        The fast path records retirements as ``(frame, producer)`` appends;
        only the injection instant reads the register file, so the slots are
        materialized here.  Replaying the last ``capacity`` entries with
        ``_writes`` pre-advanced to the drop count reproduces the eager
        path's slot assignment, tags, and cursor exactly (write ``i`` always
        lands in slot ``i % capacity``).
        """
        log = self._rf_log
        if not log:
            return
        regfile = self._regfile
        assert regfile is not None
        cap = len(regfile.slots)
        # A restored run starts mid-history: _rf_base writes were already
        # dropped from the log at capture time (only the newest `cap` can
        # occupy a slot), so tags/cursor continue from the absolute count.
        total = self._rf_base + len(log)
        start = len(log) - cap if total > cap else 0
        regfile._writes = total - cap if total > cap else 0
        regfile._cursor = regfile._writes % cap
        write = regfile.write
        for frame, obj in log[start:]:
            write(frame, obj)
        self._rf_log = []
        self._rf_base = 0

    def _switch_to_untracked(self, cb):
        """Swap the run onto the untracked compiled variant after injection.

        Remaps the current block and every pending return-resume block onto
        the untracked :class:`CompiledModule` so the rest of the run skips
        register-file logging entirely.
        """
        ucm = self._untracked_cm
        if ucm is None:
            return cb
        frames = self._frames
        for i in range(1, len(frames)):
            fr = frames[i]
            if fr.ret_cb is not None:
                fr.ret_cb = (
                    ucm.functions[frames[i - 1].function].blocks[fr.ret_cb.block]
                )
        self._cm = ucm
        return ucm.functions[frames[-1].function].blocks[cb.block]

    def _corrupt_cb(self, frame: Frame, correct_cb):
        """Fast-path control-fault resolution: CompiledBlock-level wrapper."""
        wrong = self._corrupt_target(frame, correct_cb.block)
        if wrong is correct_cb.block:
            return correct_cb
        return self._cm.functions[frame.function].blocks[wrong]

    def _corrupt_target(self, frame: Frame, correct: BasicBlock) -> BasicBlock:
        """Resolve a pending control fault: jump to a random wrong block."""
        self._pending_control_fault = False
        record = self.injection_record
        blocks = [b for b in frame.function.blocks if b is not correct]
        if not blocks:
            return correct
        assert self._rng is not None
        wrong = blocks[self._rng.randrange(len(blocks))]
        self._control_fault_fired = True
        if record is not None:
            record.landed = True
            record.was_live = True
            record.function = frame.function.name
        return wrong

    def _enter_block(
        self,
        frame: Frame,
        target: BasicBlock,
        track_registers: bool,
        value_hook,
        timing,
    ) -> None:
        """Transfer control to ``target``, executing its phis as parallel copies."""
        prev = frame.block
        frame.block = target
        frame.prev_block = prev
        instrs = target.instructions
        n_phis = 0
        staged = []
        fetch = self._fetch
        # Parallel-copy semantics: fetch every incoming before committing any
        # phi result (a header phi may use a sibling phi's *old* value).
        for instr in instrs:
            if instr.__class__ is not Phi:
                break
            n_phis += 1
            try:
                incoming = instr.incoming_for(prev)
            except KeyError:
                # Only reachable after a control fault landed us on a block
                # whose phis have no incoming for the (wrong) predecessor;
                # hardware would read garbage — model it as the first incoming.
                incoming = instr.operands[0]
            staged.append((instr, fetch(frame, incoming), incoming))
        for instr, value, incoming in staged:
            frame.values[id(instr)] = value
            if track_registers:
                self._regfile.write(frame, instr)  # type: ignore[union-attr]
            if value_hook is not None:
                value_hook(instr, value)
            if timing is not None:
                timing.observe_phi(instr, incoming)
        self.cycle += n_phis
        frame.index = n_phis

    def _fetch(self, frame: Frame, value: Value):
        v = frame.values.get(id(value), _MISSING)
        if v is not _MISSING:
            return v
        cls = value.__class__
        if cls is Constant:
            return value.value
        if cls is GlobalVariable:
            return self._global_addr[value.name]
        if cls is UndefValue:
            return 0
        if self._control_fault_fired:
            # A wrong-target jump can reach code whose inputs were never
            # computed; the hardware would read whatever the register holds.
            return 0 if not value.type.is_float else 0.0
        raise RuntimeError(
            f"value {value.short()} has no binding in frame of @{frame.function.name}"
        )

    def _eval_cast(self, instr: Cast, value):
        opcode = instr.opcode
        to_type = instr.type
        if opcode == "trunc":
            return to_type.wrap(value)
        if opcode == "zext":
            return to_type.wrap(value & instr._operands[0].type.mask)
        if opcode == "sext":
            return to_type.wrap(value)
        if opcode == "sitofp":
            result = float(value)
            if to_type is F32:
                result = _F32_STRUCT.unpack(_F32_STRUCT.pack(result))[0]
            return result
        if opcode == "fptosi":
            if math.isnan(value):
                return 0
            if value >= to_type.max_signed:
                return to_type.max_signed
            if value <= to_type.min_signed:
                return to_type.min_signed
            return int(value)
        if opcode == "fpext":
            return float(value)
        if opcode == "fptrunc":
            try:
                return _F32_STRUCT.unpack(_F32_STRUCT.pack(value))[0]
            except (OverflowError, ValueError):
                return math.inf if value > 0 else -math.inf
        if opcode == "ptrtoint":
            return to_type.wrap(value)
        if opcode == "inttoptr":
            return value & 0xFFFFFFFFFFFFFFFF
        if opcode == "bitcast":
            return value
        raise RuntimeError(f"unhandled cast {opcode}")  # pragma: no cover
