"""Golden-run snapshots, fast-forward restore, and dead-flip triage.

Every injection trial re-simulates the workload from cycle 0, yet everything
before the injection cycle is fault-free and identical to the golden run.
This module removes that redundancy in two stages:

* **Snapshots.**  One instrumented golden run (``prepare`` drives it) captures
  periodic deep copies of the full interpreter state — memory segments, call
  stack and frames, the register-file write log, cycle and guard
  counters — at a configurable cadence.  Each trial then restores the nearest
  snapshot *strictly before* its injection cycle and replays only the delta.
  Restore is bit-invisible by construction: the restored state is exactly the
  state a from-scratch run reaches at that cycle, so results, traps, guard
  statistics, and obs event logs stay byte-identical (differential tests
  enforce this), and campaign cache keys / checkpoint identity are untouched.

* **Dead-flip triage.**  After the deterministic register pick + flip, a
  static next-use/overwrite liveness check (:func:`value_dead_after`) can
  prove the flipped binding will never be read.  Such trials are short-
  circuited straight to Masked via :class:`TriageMasked` — skipping the whole
  post-injection run and the output comparison — which is sound because a
  provably-dead flip leaves execution identical to the golden run (which
  completed, trap-free, within any trial's instruction budget).

* **Re-convergence cut-off.**  Once a trial's fault has fully landed, each
  golden snapshot it reaches at the same cycle and resume point is compared
  with its state (:class:`ConvergenceWatch`, :meth:`Snapshot.converged`).
  When they agree — bit-identical frames, same stack and layout, and memory
  equal apart from words the golden run never reads again or output words
  it never touches again — the rest of the trial *is* the golden run, so it
  ends there with the golden run's end state (:class:`GoldenEnd`) and the
  trial's own bytes in those output words.

Snapshots store each segment compactly, as its bytes up to the last non-zero
byte plus its size (the 1 MiB stack segment is usually all zero).

Configuration (``CampaignConfig`` fields, see :mod:`repro.settings`):

* ``snapshot_every=0`` / ``REPRO_SNAPSHOT_EVERY=0`` disables snapshotting
  entirely; ``N`` / ``--snapshot-every N`` sets an explicit cadence; the
  default (:data:`AUTO`) derives one from the golden length;
* ``triage=False`` / ``REPRO_TRIAGE=0`` disables triage and the cut-off.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Dict, Iterator, List, Optional, Tuple

from ..analysis.liveness import LivenessInfo
from ..ir.basicblock import BasicBlock
from ..ir.instructions import Phi
from ..ir.values import Value
from ..obs import trace as trace_mod
from .events import GuardStats
from .memory import SEGMENT_SHIFT, SEGMENT_STRIDE, Memory, Segment
from .regfile import RegisterFile

__all__ = [
    "AUTO",
    "ConvergenceWatch",
    "GoldenEnd",
    "Snapshot",
    "SnapshotRecorder",
    "SnapshotStore",
    "TriageMasked",
    "auto_cadence",
    "value_dead_after",
]

#: sentinel cadence: derive one from the golden instruction count
AUTO = -1

#: auto mode aims for about this many snapshots per golden run
_TARGET_SNAPSHOTS = 32
#: auto mode never snapshots more often than this (amortisation floor)
_MIN_AUTO_EVERY = 1_000
#: auto mode skips runs too short for restore to pay for the capture run
_MIN_AUTO_GOLDEN = 4_000
#: hard cap on stored snapshots (memory bound; cadence is rounded up to fit)
MAX_SNAPSHOTS = 512
#: a ``next_due`` that never comes
_NEVER = 1 << 62


class TriageMasked(Exception):
    """Injection proven dead at flip time; the trial is Masked.

    Deliberately *not* a :class:`~repro.sim.events.SimTrap`: trap handlers
    re-time and classify traps, while this is a verdict, not an event — it
    must propagate straight to the campaign layer.  ``reason`` tells the
    campaign which triage path fired: ``"register"`` for dead-flip register
    triage, ``"dead_memory"`` for occupancy-map dead-region hits.
    """

    def __init__(self, reason: str = "register") -> None:
        super().__init__(reason)
        self.reason = reason


def auto_cadence(golden_instructions: int) -> Optional[int]:
    """Snapshot cadence for a golden run of the given length, or None when
    the run is too short for snapshotting to pay off."""
    if golden_instructions < _MIN_AUTO_GOLDEN:
        return None
    return max(_MIN_AUTO_EVERY, golden_instructions // _TARGET_SNAPSHOTS)


# ---------------------------------------------------------------------------
# dead-flip triage
# ---------------------------------------------------------------------------


def value_dead_after(
    liveness: LivenessInfo, block: BasicBlock, next_index: int, value: Value
) -> bool:
    """Will the current binding of ``value`` ever be read again?

    ``next_index`` is the position in ``block`` of the next instruction to
    execute.  The binding is *dead* (returns True) when no instruction from
    ``next_index`` onwards fetches it before it is overwritten:

    * if ``value``'s own definition sits at or after ``next_index`` in this
      block, straight-line execution re-runs it and overwrites the binding —
      only the instructions strictly before that position can read the old
      value, and block-boundary liveness is irrelevant;
    * otherwise the binding survives the block, so it is live iff some later
      instruction in the block uses it or it is live-out of the block
      (live-out folds in successor-phi edge fetches, including self-loops).

    Phi instructions never appear in the scanned range (``next_index`` is
    always past the phi prefix at every injection site) and their edge
    fetches are accounted for via live-out, but they are skipped defensively.
    Only soundness matters here: returning False (live) for a dead value
    costs a full trial run, returning True for a live one would corrupt the
    campaign — so every approximation errs towards live.
    """
    instrs = block.instructions
    limit = len(instrs)
    check_live_out = True
    if getattr(value, "parent", None) is block:
        for pos in range(next_index, limit):
            if instrs[pos] is value:
                # Re-definition ahead in this block: reads can only happen
                # before it, and the overwritten binding cannot be live-out.
                limit = pos
                check_live_out = False
                break
    for pos in range(next_index, limit):
        instr = instrs[pos]
        if instr.__class__ is Phi:
            continue
        for op in instr.operands:
            if op is value:
                return False
    if check_live_out and value in liveness.live_out.get(block, ()):
        return False
    return True


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


#: shared all-zero buffer behind every compact segment's tail (grown on demand)
_zeros = memoryview(bytes(SEGMENT_STRIDE))


def _zero_view(size: int) -> memoryview:
    global _zeros
    if len(_zeros) < size:
        _zeros = memoryview(bytes(size))
    return _zeros[:size]


#: one segment as a snapshot keeps it: ``(name, base, size, head)``, where
#: ``head`` is the data up to its last non-zero word and the rest is zero
CompactSegment = Tuple[str, int, int, bytes]


def _compact_segment(seg: Segment) -> CompactSegment:
    data, size = seg.data, seg.size
    zeros = _zero_view(size)
    # Bisect for the zero tail with memcmp (``rstrip`` walks a 1 MiB stack
    # byte by byte): data[hi:] is all zero, data[lo:] is not.
    lo, hi = -1, size
    while hi - lo > 4:
        mid = max(lo + 1, (lo + (hi - lo) // 2) & ~3)
        if data.endswith(zeros[:size - mid]):
            hi = mid
        else:
            lo = mid
    return seg.name, seg.base, size, bytes(data[:hi])


def _expand_segment(compact: CompactSegment) -> Segment:
    """A full-size segment holding ``compact``'s bytes."""
    name, base, size, head = compact
    seg = Segment.__new__(Segment)
    seg.name = name
    seg.base = base
    seg.size = size
    seg.data = bytearray(size)
    seg.data[:len(head)] = head
    return seg


def _differing_words(
    data: bytearray, compact: CompactSegment
) -> Iterator[int]:
    """Offsets, ascending, of the 4-byte words where ``data`` differs from
    ``compact``.  Bisects with in-place ``startswith`` compares (memcmp), so
    an equal segment costs one pass and no copy of the zero tail."""
    size = compact[2]
    head = memoryview(compact[3])
    n = len(head)
    zeros = _zero_view(size)

    def same(lo: int, hi: int) -> bool:
        if hi <= n:
            return data.startswith(head[lo:hi], lo)
        if lo >= n:
            return data.startswith(zeros[:hi - lo], lo)
        return (data.startswith(head[lo:], lo)
                and data.startswith(zeros[:hi - n], n))

    ranges = [(0, size)]
    while ranges:
        lo, hi = ranges.pop()
        if same(lo, hi):
            continue
        if hi - lo <= 4:
            yield lo
            continue
        mid = max(lo + 4, (lo + (hi - lo) // 2) & ~3)
        ranges.append((mid, hi))
        ranges.append((lo, mid))


def _clone_frame(template, values: Dict) -> object:
    """Instantiate a frame identical to ``template`` with its own ``values``."""
    frame = template.__class__(
        template.function, template.call_instr, template.stack_mark
    )
    frame.values = values
    frame.block = template.block
    frame.prev_block = template.prev_block
    frame.index = template.index
    frame.active = template.active
    frame.ret_cb = template.ret_cb
    frame.ret_idx = template.ret_idx
    frame.ret_has_result = template.ret_has_result
    frame.ret_key = template.ret_key
    return frame


class Snapshot:
    """Deep copy of one fast-path interpreter state at a loop-top boundary.

    ``cycle`` is the number of retired instructions; ``cb``/``idx`` name the
    compiled block and step index to resume at (CompiledBlock objects are
    shared module-level caches, valid in every interpreter of the same
    module).  Register-file history is stored as the write log's tail:
    ``rf_base`` older writes were dropped (they can no longer occupy a slot),
    and each kept entry references either a stack frame by position or a
    shared inactive stub (the frame had already returned — by construction
    nothing ever mutates such a frame); a restored run's
    :class:`~repro.sim.regfile.RegisterFile` reads them as they are.
    Memory is stored as one :data:`CompactSegment` per mapped segment, in
    address order.
    """

    __slots__ = (
        "cycle", "cb", "idx", "frames", "frame_values", "rf_entries",
        "rf_base", "segments", "global_index", "global_addr", "next_index",
        "stack_sp", "stack_limit", "guard_evaluations", "guard_failures",
    )

    @classmethod
    def capture(cls, interp, cb, idx: int, cycle: int) -> "Snapshot":
        snap = cls.__new__(cls)
        snap.cycle = cycle
        snap.cb = cb
        snap.idx = idx

        frames = interp._frames
        snap.frames = [_clone_frame(f, {}) for f in frames]
        snap.frame_values = [dict(f.values) for f in frames]

        position = {id(f): i for i, f in enumerate(frames)}
        stubs: Dict[int, object] = {}
        entries: List[Tuple[object, object]] = []
        regfile = interp._regfile
        for frame, obj in regfile.entries():
            pos = position.get(id(frame))
            if pos is None:
                stub = stubs.get(id(frame))
                if stub is None:
                    stub = _clone_frame(frame, {})
                    stub.active = False
                    stubs[id(frame)] = stub
                entries.append((stub, obj))
            else:
                entries.append((pos, obj))
        snap.rf_entries = entries
        snap.rf_base = regfile.base

        memory = interp.memory
        segments: List[CompactSegment] = []
        seen: Dict[int, int] = {}
        for seg in memory.unique_segments():
            seen[id(seg)] = len(segments)
            segments.append(_compact_segment(seg))
        snap.segments = segments
        snap.global_index = [
            (name, seen[id(seg)])
            for name, seg in interp.global_segments.items()
        ]
        snap.global_addr = dict(interp._global_addr)
        snap.next_index = memory._next_index

        snap.stack_sp = interp._stack_sp
        snap.stack_limit = interp._stack_limit
        snap.guard_evaluations = interp.guard_stats.evaluations
        snap.guard_failures = dict(interp.guard_stats.failures_by_guard)
        return snap

    def install(self, interp, injection) -> Tuple[object, int, int]:
        """Load this snapshot into ``interp`` as the state of a pending-
        injection run; returns ``(cb, idx, cycle)`` to resume the loop at.

        Every mutable structure is cloned per trial (trials mutate memory
        and frames, and append to a write log of their own), so a snapshot
        can seed any number of trials, concurrently across processes and
        serially within one.
        """
        with trace_mod.current().span(
            "restore", cat="trial", cycles=self.cycle
        ):
            return self._install(interp, injection)

    def _install(self, interp, injection) -> Tuple[object, int, int]:
        frames = [
            _clone_frame(t, dict(v))
            for t, v in zip(self.frames, self.frame_values)
        ]
        interp._frames = frames
        interp._frame = frames[-1]

        memory = Memory()
        segments = [_expand_segment(s) for s in self.segments]
        for seg in segments:
            span = (seg.size + SEGMENT_STRIDE - 1) >> SEGMENT_SHIFT
            start = seg.base >> SEGMENT_SHIFT
            for i in range(start, start + span):
                memory._segments[i] = seg
        memory._next_index = self.next_index
        interp.memory = memory
        interp._segments = memory._segments
        interp._mem_locate = memory._locate
        interp._mem_store_locate = memory._locate
        interp.global_segments = {
            name: segments[i] for name, i in self.global_index
        }
        interp._global_addr = dict(self.global_addr)
        interp._stack_sp = self.stack_sp
        interp._stack_limit = self.stack_limit

        # Entries name frames by their position in the stack as restored
        # here: a frame that returns later keeps its entries' identity.
        interp._regfile = RegisterFile(
            interp.config.phys_int_registers, self.rf_entries, tuple(frames),
            self.rf_base,
        )
        interp._rng = random.Random(injection.seed)

        interp.cycle = self.cycle
        interp.guard_stats = GuardStats(
            evaluations=self.guard_evaluations,
            failures_by_guard=dict(self.guard_failures),
        )
        interp.injection_record = None
        interp._guard_armed = False
        interp._pending_control_fault = False
        interp._control_fault_fired = False
        interp._ret_value = None
        interp._resume_cb = None
        interp._resume_idx = 0
        interp._sbk = 0
        return self.cb, self.idx, self.cycle

    def converged(
        self, interp, cb, idx: int, occupancy
    ) -> Optional[List[Tuple[Segment, int]]]:
        """Has ``interp``, at a loop top at this snapshot's cycle, re-converged
        with the golden run?  Returns None if not, else the ``(segment,
        offset)`` output words whose trial bytes differ but last.

        The rest of the trial is the rest of the golden run when everything
        the golden run will still read is equal here:

        * resume point, call stack, blocks, return linkage, and every frame
          value bit-identical (by type and float bits: ``-0.0`` is not
          ``0.0``).  ``Frame.index`` is left out: the fast path syncs it only
          for callers and at injection, and reads it only at injection;
        * stack pointer and segment layout;
        * memory, except words the golden run never reads again
          (``occupancy.is_dead``) and output words it neither reads nor
          writes again (``occupancy.output_settled``) — those keep the
          trial's bytes to the end.  Without an occupancy map memory must
          match exactly.

        Compiled blocks compare by IR block: a trial past its injection runs
        the untracked variant, the snapshot was taken on the tracked one.
        """
        if idx != self.idx or cb.block is not self.cb.block:
            return None
        if (interp._stack_sp != self.stack_sp
                or interp._stack_limit != self.stack_limit):
            return None
        frames = interp._frames
        if len(frames) != len(self.frames):
            return None
        for frame, tmpl, values in zip(frames, self.frames, self.frame_values):
            if not (_same_linkage(frame, tmpl)
                    and _same_values(frame.values, values)):
                return None
        memory = interp.memory
        segments = memory.unique_segments()
        if (memory._next_index != self.next_index
                or len(segments) != len(self.segments)):
            return None
        spans = occupancy.segment_spans if occupancy is not None else ()
        keep: List[Tuple[Segment, int]] = []
        for i, (seg, compact) in enumerate(zip(segments, self.segments)):
            name, base, size, _head = compact
            if seg.name != name or seg.base != base or seg.size != size:
                return None
            for offset in _differing_words(seg.data, compact):
                if i >= len(spans) or spans[i][0] != name:
                    return None
                _, word_base, words = spans[i]
                if (offset >> 2) >= words:
                    return None  # a trailing partial word has no liveness
                word = word_base + (offset >> 2)
                if occupancy.is_output(word):
                    if not occupancy.output_settled(word, self.cycle):
                        return None
                    keep.append((seg, offset))
                elif not occupancy.is_dead(word, self.cycle):
                    return None
        return keep


def _same_linkage(frame, tmpl) -> bool:
    """Same activation: function, blocks, call site and return linkage."""
    ret_cb = frame.ret_cb
    return (
        frame.function is tmpl.function
        and frame.block is tmpl.block
        and frame.prev_block is tmpl.prev_block
        and frame.call_instr is tmpl.call_instr
        and frame.stack_mark == tmpl.stack_mark
        and frame.active == tmpl.active
        and frame.ret_idx == tmpl.ret_idx
        and frame.ret_has_result == tmpl.ret_has_result
        and frame.ret_key == tmpl.ret_key
        and (ret_cb.block if ret_cb is not None else None)
        is (tmpl.ret_cb.block if tmpl.ret_cb is not None else None)
    )


def _same_values(values: Dict, golden: Dict) -> bool:
    """Bit-identical value bindings.

    ``==`` already separates every pair of non-equal values and, through
    its identity shortcut, only lets a NaN through when it is the golden
    object itself; what it leaves are same-valued bindings of another type
    (``1`` vs ``1.0``) and zeros of opposite sign.
    """
    if values != golden:
        return False
    for key, g in golden.items():
        v = values[key]
        if v.__class__ is not g.__class__:
            return False
        if (g.__class__ is float and g == 0.0
                and math.copysign(1.0, v) != math.copysign(1.0, g)):
            return False
    return True


class GoldenEnd:
    """How the golden run ended: the state a re-converged trial ends in.

    ``outputs`` holds the final bytes of every output segment; guard
    counters let a cut-off trial add the golden run's remaining guard
    evaluations and (noisy, hence disabled) guard failures to its own.
    """

    __slots__ = ("instructions", "return_value", "guard_evaluations",
                 "guard_failures", "outputs")

    def __init__(self, interp, result, output_names) -> None:
        self.instructions = result.instructions
        self.return_value = result.return_value
        self.guard_evaluations = result.guard_stats.evaluations
        self.guard_failures = dict(result.guard_stats.failures_by_guard)
        self.outputs = {
            name: bytes(interp.global_segments[name].data)
            for name in output_names
        }


class SnapshotStore:
    """Snapshots of one golden run, ordered by cycle."""

    def __init__(self) -> None:
        self.snapshots: List[Snapshot] = []
        self._cycles: List[int] = []
        #: the golden run's end state (set by ``prepare()``); without it
        #: trials are never cut off
        self.end: Optional[GoldenEnd] = None

    def add(self, snapshot: Snapshot) -> None:
        self.snapshots.append(snapshot)
        self._cycles.append(snapshot.cycle)

    def __len__(self) -> int:
        return len(self.snapshots)

    def nearest(self, inject_cycle: int) -> Optional[Snapshot]:
        """Latest snapshot strictly before ``inject_cycle``.

        An injection at cycle C fires at the state after C-1 retired
        instructions, so a snapshot taken *at* C is already too late — the
        usable prefix ends at C-1.
        """
        pos = bisect.bisect_right(self._cycles, inject_cycle - 1)
        if pos == 0:
            return None
        return self.snapshots[pos - 1]


def _fault_settled(interp) -> bool:
    """Has the fault fully landed, with nothing left to fire?"""
    return (
        interp.injection_record is not None
        and not interp._pending_control_fault
        and interp._stuck_fault is None
        and interp._stuck_mem_fault is None
    )


class ConvergenceWatch:
    """Ends a trial at the first golden snapshot it re-converges with.

    Speaks the recorders' ``next_due`` / ``take`` protocol, so the fast
    path checks it from the loop-top due test it already makes: no
    per-instruction work.  ``take`` returns -1 once the trial matched a
    snapshot (:meth:`Snapshot.converged`); the interpreter then holds the
    golden run's end state — output segments with the golden final bytes
    and the trial's lasting output words, ``cycle`` at the golden length,
    the golden return value and guard counts — and ``converged_at`` names
    the snapshot cycle.  Sound only when the instruction budget covers the
    golden run; the campaign enables it together with triage.
    """

    def __init__(self, store: SnapshotStore, inject_cycle: int,
                 occupancy) -> None:
        self.snapshots = store.snapshots
        self.end = store.end
        self.occupancy = occupancy
        self._pos = bisect.bisect_left(store._cycles, inject_cycle)
        self.next_due = self._due()

    def _due(self) -> int:
        if self._pos < len(self.snapshots):
            return self.snapshots[self._pos].cycle
        return _NEVER

    def take(self, interp, cb, idx: int, cycle: int) -> int:
        snaps = self.snapshots
        pos = self._pos
        while pos < len(snaps) and snaps[pos].cycle < cycle:
            pos += 1
        if pos < len(snaps) and snaps[pos].cycle == cycle:
            snap = snaps[pos]
            pos += 1
            if _fault_settled(interp):
                keep = snap.converged(interp, cb, idx, self.occupancy)
                if keep is not None:
                    self._finish(interp, snap, keep)
                    return -1
        self._pos = pos
        return self._due()

    def _finish(self, interp, snap: Snapshot,
                keep: List[Tuple[Segment, int]]) -> None:
        end = self.end
        kept = [(seg, off, bytes(seg.data[off:off + 4])) for seg, off in keep]
        for name, final in end.outputs.items():
            interp.global_segments[name].data[:] = final
        for seg, off, raw in kept:
            seg.data[off:off + 4] = raw
        stats = interp.guard_stats
        stats.evaluations += end.guard_evaluations - snap.guard_evaluations
        failures = stats.failures_by_guard
        for guard, count in end.guard_failures.items():
            extra = count - snap.guard_failures.get(guard, 0)
            if extra:
                failures[guard] = failures.get(guard, 0) + extra
        interp._ret_value = end.return_value
        interp.converged_at = snap.cycle
        interp.cycle = end.instructions


class SnapshotRecorder:
    """Capture hook handed to a golden run (``interp.run(capture=...)``).

    The fast-path loop compares ``next_due`` against the cycle counter at
    each loop top (one integer comparison of overhead) and calls
    :meth:`take` when due.  Snapshots may land a superblock past the nominal
    cadence — harmless, since restore uses the actual stored cycle.
    """

    def __init__(self, every: int, limit: int = MAX_SNAPSHOTS) -> None:
        if every <= 0:
            raise ValueError("snapshot cadence must be positive")
        self.every = every
        self.limit = limit
        self.store = SnapshotStore()
        self.next_due = every

    def take(self, interp, cb, idx: int, cycle: int) -> int:
        """Capture now; returns the next due cycle (huge when full)."""
        with trace_mod.current().span(
            "snapshot.take", cat="prepare", cycle=cycle
        ):
            return self._take(interp, cb, idx, cycle)

    def _take(self, interp, cb, idx: int, cycle: int) -> int:
        # Only the newest `capacity` writes can still occupy a register
        # slot; trim the log so capture cost and snapshot size stay bounded.
        interp._regfile.trim()
        self.store.add(Snapshot.capture(interp, cb, idx, cycle))
        if len(self.store) >= self.limit:
            self.next_due = _NEVER
        else:
            self.next_due = cycle + self.every
        return self.next_due
