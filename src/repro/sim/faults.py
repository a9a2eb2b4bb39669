"""Transient-fault models (paper Section IV-C and beyond).

The paper's fault model is the traditional single bit flip, randomized in
time (a uniformly random dynamic cycle within the golden run length) and
space (a uniformly random occupied physical register, then a uniformly
random bit of that register).  That model remains the default — and stays
bit-identical to the historical implementation — but detector-coverage
conclusions are sensitive to the fault model (DETOx; Azambuja et al.), so
this module generalises it into a pluggable :class:`FaultModel` hierarchy:

* ``single_bit`` — the paper's model (default);
* ``double_bit`` — two independent bit flips, in the same or distinct
  occupied registers (a double-event upset);
* ``burst`` — a contiguous window of 2–:data:`BURST_MAX_BITS` flipped bits
  within one register (a multi-cell upset along a physical row);
* ``stuck_at`` — one register bit forced to 0 or 1, re-applied on a cadence
  for :data:`STUCK_WINDOW_CYCLES` cycles (an intermittent/stuck fault);
* ``mem_transient`` / ``mem_stuck_at`` / ``cache_line`` / ``stack_frame`` —
  the memory-hierarchy suite: occupied-word transient, forced memory bit
  with reapply-on-write semantics, resident-L1D-line data/tag corruption,
  and active-stack-frame spill flips.  Each takes its target and its
  dead-or-live verdict from the golden-run occupancy map built by
  :mod:`repro.sim.memfaults`, and provably-dead hits short-circuit to
  Masked through the triage path.  An injection without a map raises
  :class:`ValueError`;
* ``memory_word`` — the earlier name of ``mem_transient``, kept so its
  plans, records and cache keys stay valid.

``chaos`` is a *plan-level* pseudo-model: each trial draws one of the
concrete models above from the campaign RNG.  It never reaches the
interpreter — plans always carry a concrete model name.

**Determinism.**  A model may need more randomness than the pre-drawn
(cycle, bit, seed) triple; every extra draw comes from the trial's private
:class:`random.Random` (seeded from the plan's ``seed``) *at injection
time*, never from shared state, so ``jobs=N`` campaigns stay byte-identical
to serial ones for every model.  ``single_bit`` performs exactly the
historical RNG call sequence — its plans, trials, and cache keys are
bit-identical to the pre-hierarchy implementation.

:func:`flip_bit` implements the per-type single-bit-flip semantics;
:class:`InjectionPlan` describes one planned injection; :class:`InjectionRecord`
captures what actually happened, including the before/after values used by the
Figure 2 large-vs-small value-change analysis.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from ..ir.types import FloatType, IntType, IRType, PointerType
from .memfaults import (
    draw_occupied_word,
    fill_memory_record,
    triage_dead_memory,
)

_F64 = struct.Struct("<d")
_F32 = struct.Struct("<f")
_MISSING = object()

#: burst-model window width is drawn uniformly from [BURST_MIN_BITS,
#: BURST_MAX_BITS] — module constants rather than :class:`SimConfig` fields
#: on purpose: SimConfig is part of every campaign cache key, and the burst
#: parameters must only fragment keys for campaigns that actually use them
#: (the fault-model name in the key covers that).
BURST_MIN_BITS = 2
BURST_MAX_BITS = 8

#: stuck-at faults persist for this many cycles after injection ...
STUCK_WINDOW_CYCLES = 256
#: ... re-forcing the bit every this many cycles (the profiled window).
STUCK_REAPPLY_EVERY = 16


def flip_bit(type_: IRType, value, bit: int, pointer_bits: int = 32):
    """Return ``value`` with ``bit`` flipped, respecting the type's encoding.

    * integers: two's-complement flip within the type's width (``bit`` taken
      modulo the width);
    * floats: IEEE-754 bit flip (f64 = 64 bits); NaN results are kept — they
      propagate like hardware NaNs;
    * pointers: flip within the low ``pointer_bits`` bits (ARMv7-a registers
      are 32-bit).
    """
    if isinstance(type_, IntType):
        bit %= type_.bits
        return type_.wrap((value & type_.mask) ^ (1 << bit))
    if isinstance(type_, FloatType):
        # Packing an f64 is idempotent, so one pack suffices: flip the bit
        # directly in the IEEE-754 image of the value.
        bit %= 64
        bits = struct.unpack("<Q", _F64.pack(float(value)))[0] ^ (1 << bit)
        return struct.unpack("<d", struct.pack("<Q", bits))[0]
    if isinstance(type_, PointerType):
        bit %= pointer_bits
        return (int(value) ^ (1 << bit)) & ((1 << 64) - 1)
    raise TypeError(f"cannot flip a bit of type {type_}")


def _window_mask(bits: int, start: int, width: int) -> int:
    """XOR mask of ``width`` contiguous bits from ``start``, wrapping at
    ``bits`` (a burst crossing the top bit wraps to bit 0, like a physical
    row of cells adjacent modulo the register width)."""
    mask = 0
    for i in range(width):
        mask |= 1 << ((start + i) % bits)
    return mask


def flip_bits_window(
    type_: IRType, value, start_bit: int, width: int, pointer_bits: int = 32
):
    """Return ``value`` with a contiguous ``width``-bit window flipped.

    The window starts at ``start_bit`` (taken modulo the type's encoded
    width, like :func:`flip_bit`) and wraps around the top bit.
    """
    if isinstance(type_, IntType):
        mask = _window_mask(type_.bits, start_bit % type_.bits, width)
        return type_.wrap((value & type_.mask) ^ mask)
    if isinstance(type_, FloatType):
        mask = _window_mask(64, start_bit % 64, width)
        bits = struct.unpack("<Q", _F64.pack(float(value)))[0] ^ mask
        return struct.unpack("<d", struct.pack("<Q", bits))[0]
    if isinstance(type_, PointerType):
        mask = _window_mask(pointer_bits, start_bit % pointer_bits, width)
        return (int(value) ^ mask) & ((1 << 64) - 1)
    raise TypeError(f"cannot flip bits of type {type_}")


def force_bit(type_: IRType, value, bit: int, stuck: int, pointer_bits: int = 32):
    """Return ``value`` with ``bit`` forced to ``stuck`` (0 or 1).

    The stuck-at analogue of :func:`flip_bit`: idempotent, so re-applying it
    over the stuck window models a cell that cannot change state.
    """
    if isinstance(type_, IntType):
        bit %= type_.bits
        raw = value & type_.mask
        raw = raw | (1 << bit) if stuck else raw & ~(1 << bit)
        return type_.wrap(raw)
    if isinstance(type_, FloatType):
        bit %= 64
        bits = struct.unpack("<Q", _F64.pack(float(value)))[0]
        bits = bits | (1 << bit) if stuck else bits & ~(1 << bit)
        return struct.unpack("<d", struct.pack("<Q", bits))[0]
    if isinstance(type_, PointerType):
        bit %= pointer_bits
        raw = int(value)
        raw = raw | (1 << bit) if stuck else raw & ~(1 << bit)
        return raw & ((1 << 64) - 1)
    raise TypeError(f"cannot force a bit of type {type_}")


def value_change_magnitude(type_: IRType, before, after) -> float:
    """Relative magnitude of a value corruption, for the ASDC/USDC large-vs-
    small split of Figure 2.

    Defined as ``|after - before| / max(|before|, 1)`` for numeric types.
    Non-finite floats count as an infinite change.
    """
    if isinstance(type_, (IntType, PointerType)):
        b, a = int(before), int(after)
        return abs(a - b) / max(abs(b), 1)
    if isinstance(type_, FloatType):
        b, a = float(before), float(after)
        if not math.isfinite(a) or not math.isfinite(b):
            return math.inf
        return abs(a - b) / max(abs(b), 1.0)
    raise TypeError(f"no change magnitude for type {type_}")


@dataclass
class InjectionPlan:
    """A fault to inject at dynamic cycle ``cycle``.

    ``kind`` selects the fault *site* class:

    * ``"register"`` (default, the paper's model): corrupt state picked at
      injection time per the plan's fault ``model`` (a register for the
      register models, memory or a cache line for the memory-hierarchy
      ones);
    * ``"control"``: corrupt the target of the next branch — the jump lands
      on a uniformly random wrong block of the executing function.  This is
      the branch-target fault class the paper explicitly excludes from its
      own coverage and defers to signature-based schemes (Section IV-C);
      the :mod:`repro.transforms.cfcss` transform protects against it.

    ``model`` names a concrete :class:`FaultModel` (``"chaos"`` is resolved
    to a concrete model at plan-drawing time and never appears here).
    """

    cycle: int
    bit: int
    seed: int = 0
    kind: str = "register"
    model: str = "single_bit"

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("injection cycle must be non-negative")
        if self.bit < 0:
            raise ValueError("injection bit must be non-negative")
        if self.kind not in ("register", "control"):
            raise ValueError(f"unknown injection kind {self.kind!r}")
        if self.model not in FAULT_MODELS:
            raise ValueError(f"unknown fault model {self.model!r}")


@dataclass
class InjectionRecord:
    """What an injection actually did (filled in by the interpreter)."""

    plan: InjectionPlan
    landed: bool
    #: name of the IR value whose register was corrupted ('' if none
    #: occupied; ``a+b`` when a double-bit fault hit two registers;
    #: ``<mem:seg+off>`` for memory-word faults)
    value_name: str = ""
    type_name: str = ""
    #: function whose frame owned the flipped register (program region)
    function: str = ""
    before: object = None
    after: object = None
    #: True when the flipped register's value was still live (frame active and
    #: not yet overwritten); dead flips are naturally masked.
    was_live: bool = False

    @property
    def change_magnitude(self) -> float:
        """Relative corruption size (0.0 when the flip landed nowhere)."""
        if not self.landed or self.before is None:
            return 0.0
        from ..ir.types import parse_type

        return value_change_magnitude(parse_type(self.type_name), self.before, self.after)


#: Threshold on :func:`value_change_magnitude` above which a corruption counts
#: as a "large value change" in the Figure 2 analysis.
LARGE_CHANGE_THRESHOLD = 4.0


# ---------------------------------------------------------------------------
# fault-model hierarchy
# ---------------------------------------------------------------------------


def _corrupt_slot(interp, record: InjectionRecord, slot, mutate) -> bool:
    """Apply ``mutate(type_, current)`` to one register slot's value.

    Fills ``record`` exactly like the historical single-bit path: a stale
    slot (owning frame returned, or value overwritten) records a landed but
    dead flip and is left untouched.  Returns True when the value was live
    and actually mutated.
    """
    value_obj = slot.value_obj
    frame = slot.frame
    record.value_name = getattr(value_obj, "name", "")
    record.type_name = value_obj.type.name
    record.function = frame.function.name
    current = frame.values.get(slot.value_key, _MISSING)
    if not frame.active or current is _MISSING:
        # Stale register (frame returned): flip is architecturally dead.
        record.landed = True
        record.was_live = False
        return False
    mutated = mutate(value_obj.type, current)
    if interp._undo_log is not None:
        # Batched lane sweep: journal the binding so the strike can be
        # rolled back byte-exactly after the lane's verdict is recorded.
        interp._undo_log.append(("reg", frame, slot.value_key, current))
    frame.values[slot.value_key] = mutated
    record.landed = True
    record.was_live = True
    record.before = current
    record.after = mutated
    return True


class FaultModel:
    """One way of corrupting simulator state at the injection instant.

    ``inject`` receives the interpreter (whose private per-trial RNG supplies
    any extra randomness the model needs), the plan, a fresh
    :class:`InjectionRecord` to fill, and the location of the next
    instruction (for the single-bit model's dead-flip triage).  It returns
    the cycle at which the model wants to fire again (stuck-at
    re-application) or -1 for one-shot faults.  ``reapply`` handles those
    re-fires and returns the next one (or -1).
    """

    name = ""

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        raise NotImplementedError

    def reapply(self, interp, plan) -> int:  # pragma: no cover - one-shot default
        return -1


class SingleBitFault(FaultModel):
    """The paper's model: one bit of one occupied physical register.

    Performs the exact historical RNG call sequence (live-biased slot pick,
    then :func:`flip_bit`), so single-bit campaigns are bit-identical to the
    pre-hierarchy implementation — the default model must never perturb
    existing plans, results, or cache keys.  The only model eligible for
    dead-flip triage: its corruption is a single register binding, so
    next-use liveness proves deadness.
    """

    name = "single_bit"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        slot = interp._pick_injection_slot()
        if slot is None:
            # No register has retired yet: nothing to corrupt, Masked.
            interp._triage_short_circuit()
            return -1
        live = _corrupt_slot(
            interp, record, slot,
            lambda t, v: flip_bit(t, v, plan.bit, interp.config.register_flip_bits),
        )
        if not live:
            interp._triage_short_circuit()
            return -1
        interp._triage_flip(slot, top_frame, next_index)
        return -1


class DoubleBitFault(FaultModel):
    """Two independent bit flips (a double-event upset).

    The first flip is the plan's ``bit`` in a slot picked exactly like
    ``single_bit``; the second draws a fresh bit from the trial RNG and
    picks again — the same slot may be chosen twice (two flips in one
    register) or two registers may each take one.  The record keeps the
    first landed flip's before/after (for the Figure 2 magnitude analysis)
    and joins both register names with ``+``.
    """

    name = "double_bit"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        width = interp.config.register_flip_bits
        slot = interp._pick_injection_slot()
        if slot is not None:
            _corrupt_slot(
                interp, record, slot,
                lambda t, v: flip_bit(t, v, plan.bit, width),
            )
        second_bit = interp._rng.randrange(width)
        slot2 = interp._pick_injection_slot()
        if slot2 is None:
            return -1
        second = InjectionRecord(plan=plan, landed=False)
        _corrupt_slot(
            interp, second, slot2,
            lambda t, v: flip_bit(t, v, second_bit, width),
        )
        if second.value_name and second.value_name != record.value_name:
            record.value_name = (
                f"{record.value_name}+{second.value_name}"
                if record.value_name else second.value_name
            )
        if not record.function:
            record.function = second.function
        if record.before is None and second.before is not None:
            record.type_name = second.type_name
            record.before = second.before
            record.after = second.after
        record.landed = record.landed or second.landed
        record.was_live = record.was_live or second.was_live
        return -1


class BurstFault(FaultModel):
    """A contiguous window of flipped bits within one register.

    The window width is drawn uniformly from [:data:`BURST_MIN_BITS`,
    :data:`BURST_MAX_BITS`] out of the trial RNG; the window starts at the
    plan's ``bit`` and wraps around the register width (see
    :func:`flip_bits_window`).
    """

    name = "burst"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        width = BURST_MIN_BITS + interp._rng.randrange(
            BURST_MAX_BITS - BURST_MIN_BITS + 1
        )
        slot = interp._pick_injection_slot()
        if slot is None:
            return -1
        _corrupt_slot(
            interp, record, slot,
            lambda t, v: flip_bits_window(
                t, v, plan.bit, width, interp.config.register_flip_bits
            ),
        )
        return -1


class StuckAtFault(FaultModel):
    """One register bit forced to 0 or 1 for a window of cycles.

    The stuck polarity is drawn from the trial RNG; the bit is forced at
    injection and re-forced every :data:`STUCK_REAPPLY_EVERY` cycles for
    :data:`STUCK_WINDOW_CYCLES` cycles, so a program that rewrites the
    register keeps losing that bit — an intermittent fault rather than a
    transient one.  Re-application stops early when the owning frame
    returns or the binding is overwritten out of the frame.
    """

    name = "stuck_at"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        stuck = interp._rng.randrange(2)
        slot = interp._pick_injection_slot()
        if slot is None:
            return -1
        live = _corrupt_slot(
            interp, record, slot,
            lambda t, v: force_bit(
                t, v, plan.bit, stuck, interp.config.register_flip_bits
            ),
        )
        if not live:
            return -1
        interp._stuck_fault = (
            slot.frame, slot.value_key, slot.value_obj, plan.bit, stuck,
            interp.cycle + STUCK_WINDOW_CYCLES,
        )
        return interp.cycle + STUCK_REAPPLY_EVERY

    def reapply(self, interp, plan) -> int:
        binding = interp._stuck_fault
        if binding is None:
            return -1
        frame, value_key, value_obj, bit, stuck, deadline = binding
        if interp.cycle > deadline or not frame.active:
            interp._stuck_fault = None
            return -1
        current = frame.values.get(value_key, _MISSING)
        if current is not _MISSING:
            frame.values[value_key] = force_bit(
                value_obj.type, current, bit, stuck,
                interp.config.register_flip_bits,
            )
        next_cycle = interp.cycle + STUCK_REAPPLY_EVERY
        if next_cycle > deadline:
            interp._stuck_fault = None
            return -1
        return next_cycle


class MemTransientFault(FaultModel):
    """``mem_transient``: one bit flip in an *occupied* memory word.

    The particle-strike analogue of ``single_bit`` for the memory system.
    The target is drawn uniformly over words the golden run actually uses
    (the occupancy map from :mod:`repro.sim.memfaults`), so trials never
    waste draws on the vast empty address space.  Provably-dead hits
    triage to Masked with ``reason="dead_memory"``.
    """

    name = "mem_transient"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        drawn = draw_occupied_word(interp, plan)
        if drawn is None:  # pragma: no cover - see draw_occupied_word
            interp._triage_short_circuit()
            return -1
        seg, offset, dead = drawn
        before, after = interp.memory.flip_word_bit(seg, offset, plan.bit)
        fill_memory_record(
            record, interp, top_frame, seg, offset, before, after, dead
        )
        if dead:
            triage_dead_memory(interp)
        return -1


class MemoryWordFault(MemTransientFault):
    """``memory_word``: the earlier name of ``mem_transient``.

    It stays registered, in its original slot of
    :data:`CONCRETE_FAULT_MODELS` (the chaos mix draws by index), so
    existing ``memory_word`` plans, records and cache keys keep their
    meaning.
    """

    name = "memory_word"


class MemStuckAtFault(FaultModel):
    """``mem_stuck_at``: a memory bit forced to 0/1 with reapply semantics.

    Polarity comes first from the trial RNG (mirroring the register
    ``stuck_at`` draw order), then the target word.  The binding is
    re-forced every :data:`STUCK_REAPPLY_EVERY` cycles for
    :data:`STUCK_WINDOW_CYCLES` — approximating reapply-on-write: any store
    to the word is overridden within at most 16 cycles while the window
    lasts.  A provably-dead word (never read again) triages to Masked:
    re-forcing an unread word is invisible by the same argument as a
    transient dead hit.
    """

    name = "mem_stuck_at"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        stuck = interp._rng.randrange(2)
        drawn = draw_occupied_word(interp, plan)
        if drawn is None:  # pragma: no cover - see draw_occupied_word
            interp._triage_short_circuit()
            return -1
        seg, offset, dead = drawn
        before, after = interp.memory.force_word_bit(
            seg, offset, plan.bit, stuck
        )
        fill_memory_record(
            record, interp, top_frame, seg, offset, before, after, dead
        )
        if dead:
            triage_dead_memory(interp)
            return -1
        interp._stuck_mem_fault = (
            seg, offset, plan.bit, stuck, interp.cycle + STUCK_WINDOW_CYCLES
        )
        return interp.cycle + STUCK_REAPPLY_EVERY

    def reapply(self, interp, plan) -> int:
        binding = interp._stuck_mem_fault
        if binding is None:
            return -1
        seg, offset, bit, stuck, deadline = binding
        if interp.cycle >= deadline:
            interp._stuck_mem_fault = None
            return -1
        interp.memory.force_word_bit(seg, offset, bit, stuck)
        return interp.cycle + STUCK_REAPPLY_EVERY


class CacheLineFault(FaultModel):
    """``cache_line``: corrupt a line resident in the modelled L1D.

    The struck line comes from the golden run's residency snapshot nearest
    the injection cycle.  A *data* strike flips one bit of one word the
    line caches (surfacing as a wrong-value load); a *tag* strike flips an
    address bit of the line's tag, modelled as the dirty line writing back
    over the aliased address — the original data survives (clean refetch
    from memory) while the aliased region takes the line's bytes.  Strikes
    that resolve to no mapped backing store (empty cache, line tail past
    its segment, alias into a guard gap) are absorbed by the miss path:
    the refetch is clean and the trial is provably Masked.
    """

    name = "cache_line"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        occ = interp._occupancy
        lines = occ.resident_at(plan.cycle)
        rng = interp._rng
        if not lines:
            interp._triage_short_circuit()
            return -1
        line = lines[rng.randrange(len(lines))]
        tag_strike = rng.randrange(2)
        shift = occ.cache_line_shift
        memory = interp.memory
        if tag_strike:
            return self._strike_tag(
                interp, plan, record, top_frame, occ, memory, line, shift
            )
        word_in_line = rng.randrange((1 << shift) // 4)
        address = (line << shift) + word_in_line * 4
        seg = memory.segment_at(address)
        if seg is None or (address - seg.base) + 4 > seg.size:
            # The cached tail of a segment's last line backs no data.
            interp._triage_short_circuit()
            return -1
        offset = address - seg.base
        before, after = memory.flip_word_bit(seg, offset, plan.bit)
        word = occ.word_of(memory, seg, offset)
        dead = word is not None and occ.is_dead(word, plan.cycle)
        fill_memory_record(
            record, interp, top_frame, seg, offset, before, after, dead,
            prefix="cache",
        )
        if dead:
            triage_dead_memory(interp)
        return -1

    def _strike_tag(
        self, interp, plan, record, top_frame, occ, memory, line, shift
    ) -> int:
        line_bytes = 1 << shift
        src = line << shift
        dst = src ^ (1 << (shift + (plan.bit % 16)))
        seg = memory.segment_at(dst)
        if seg is None:
            # Aliased address is unmapped: the misdirected writeback is
            # dropped and the original address refetches clean.
            interp._triage_short_circuit()
            return -1
        offset = dst - seg.base
        end = min(offset + line_bytes, seg.size)
        data = bytearray(end - offset)
        src_seg = memory.segment_at(src)
        if src_seg is not None:
            s_off = src - src_seg.base
            avail = max(0, min(len(data), src_seg.size - s_off))
            data[:avail] = src_seg.data[s_off:s_off + avail]
        before = int.from_bytes(seg.data[offset:offset + 4], "little")
        changed = bytes(seg.data[offset:end]) != bytes(data)
        if interp._undo_log is not None:
            interp._undo_log.append(
                ("bytes", seg, offset, bytes(seg.data[offset:end]))
            )
        seg.data[offset:end] = data
        after = int.from_bytes(seg.data[offset:offset + 4], "little")
        dead = not changed
        if changed:
            # The whole region was overwritten: dead only when *every*
            # touched word is provably never read again.
            touched = [
                occ.word_of(memory, seg, o) for o in range(offset, end, 4)
            ]
            dead = all(
                w is not None and occ.is_dead(w, plan.cycle) for w in touched
            )
        fill_memory_record(
            record, interp, top_frame, seg, offset, before, after, dead,
            prefix="cache:tag",
        )
        if dead:
            triage_dead_memory(interp)
        return -1


class StackFrameFault(FaultModel):
    """``stack_frame``: one bit flip in the active frame's spill area.

    The target word is uniform over ``[top_frame.stack_mark, sp)`` — the
    bytes the current frame has alloca'd.  Leaf frames with no spills widen
    to the whole active stack ``[stack_base, sp)``, and with no active stack
    bytes at all (fully mem2reg-promoted code never moves ``sp``) the strike
    lands anywhere in the stack segment — unallocated stack, which the
    occupancy map proves dead (triaged to Masked) unless some later frame
    genuinely reads it.
    """

    name = "stack_frame"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        memory = interp.memory
        sp = interp._stack_sp
        frame = top_frame if top_frame is not None else interp._frame
        stack_seg = memory.segment_at(sp - 4) or memory.segment_at(sp)
        if stack_seg is None:  # pragma: no cover - stack mapped in _setup_run
            interp._triage_short_circuit()
            return -1
        lo = frame.stack_mark if frame is not None else stack_seg.base
        if sp - lo < 4:
            lo = stack_seg.base
        words = (sp - lo) >> 2
        if words <= 0:
            words = stack_seg.size >> 2
            lo = stack_seg.base
        if words <= 0:  # pragma: no cover - stack segments are never empty
            interp._triage_short_circuit()
            return -1
        address = lo + interp._rng.randrange(words) * 4
        offset = address - stack_seg.base
        before, after = memory.flip_word_bit(stack_seg, offset, plan.bit)
        occ = interp._occupancy
        word = occ.word_of(memory, stack_seg, offset)
        dead = word is not None and occ.is_dead(word, plan.cycle)
        fill_memory_record(
            record, interp, top_frame, stack_seg, offset, before, after, dead,
            prefix="stack",
        )
        if dead:
            triage_dead_memory(interp)
        return -1


#: name -> concrete model instance (insertion order is the canonical listing
#: order used by the chaos mix and the CLIs; the register models come first,
#: the PR-8 memory-hierarchy models after, so older plan streams are stable)
FAULT_MODELS = {
    model.name: model
    for model in (
        SingleBitFault(),
        DoubleBitFault(),
        BurstFault(),
        StuckAtFault(),
        MemoryWordFault(),
        MemTransientFault(),
        MemStuckAtFault(),
        CacheLineFault(),
        StackFrameFault(),
    )
}

#: the concrete model names, in canonical order
CONCRETE_FAULT_MODELS = tuple(FAULT_MODELS)

#: models whose dead-target proofs make triage short-circuits sound: the
#: single-register flip (next-use liveness) and the memory-hierarchy models
#: (occupancy-map last-read intervals).  Multi-site and persistent register
#: models keep the full run.
TRIAGEABLE_FAULT_MODELS = frozenset({
    "single_bit", "memory_word", "mem_transient", "mem_stuck_at",
    "cache_line", "stack_frame",
})

#: plan-level pseudo-model: each trial draws a concrete model from the
#: campaign RNG (see :func:`repro.faultinjection.campaign.draw_plans`)
CHAOS_FAULT_MODEL = "chaos"


def get_fault_model(name: str) -> FaultModel:
    """The concrete :class:`FaultModel` registered under ``name``."""
    try:
        return FAULT_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault model {name!r} (known: "
            f"{', '.join(CONCRETE_FAULT_MODELS)})"
        ) from None
