"""Memory-hierarchy fault models + golden-run occupancy instrumentation.

The register-file models in :mod:`repro.sim.faults` cover the paper's own
evaluation; real soft-error budgets are dominated by the memory system.  This
module adds that axis in two halves:

* **Occupancy maps.**  An instrumented golden pass (driven by
  ``prepare()``, fused with the snapshot-capture run via
  :class:`FusedCapture` when both are wanted) wraps the fast path's
  load/store address translation and records, per 32-bit word of every
  mapped segment, when it was first and last written and last read — plus
  periodic *liveness boundaries* (cycle, access-sequence-number pairs) and,
  at each boundary, which lines of the modelled L1D are resident.  The
  result is an :class:`OccupancyMap`: enough to (a) draw injection targets
  uniformly over *occupied* words, (b) prove a word dead at a given
  injection cycle (no read at-or-after it), (c) prove an output word
  settled (neither read nor written at-or-after a cycle), which the
  re-convergence cut-off needs, and (d) model a resident cache line being
  struck.

* **Injection helpers.**  The shared occupied-word draw, record filling,
  and dead-hit triage used by the memory-hierarchy fault models
  (``mem_transient`` and its earlier name ``memory_word``,
  ``mem_stuck_at``, ``cache_line``, ``stack_frame`` — defined and
  registered in :mod:`repro.sim.faults`, which imports this
  module; keeping the dependency one-directional makes either module safe
  to import first).  All model randomness comes from the trial's private
  seed at injection time (zero extra plan draws), so ``jobs=N`` campaigns
  stay byte-identical to serial ones.  Dead-region hits fill the injection
  record exactly as a full run would, then short-circuit to Masked through
  the triage path with ``reason="dead_memory"`` — sound because a flip in a
  word the golden run never reads again leaves execution identical to the
  golden run.

Deadness proofs are *conservative*: a word's last-read access number is
compared against the largest recorded boundary at-or-before the injection
cycle, so reads between that boundary and the injection count as "after" and
keep the word live.  Being conservative only costs a short-circuit, never
correctness.

The map is captured once per prepared workload and never pickled: parallel
workers recompute it deterministically from the same golden run (or inherit
it over fork), so serial and ``jobs=N`` trials draw identical targets.  The
capture pass runs for the models in :data:`OCCUPANCY_MODELS`, and the map is
the only source of their targets and verdicts: the interpreter refuses to
inject one of them without a map.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from .cache import ResidencyTracker
from .memory import Memory, MemoryFaultError, Segment
from .snapshot import TriageMasked

__all__ = [
    "FusedCapture",
    "MAX_BOUNDARIES",
    "OCCUPANCY_MODELS",
    "OccupancyMap",
    "OccupancyRecorder",
    "boundary_cadence",
    "draw_occupied_word",
    "fill_memory_record",
    "triage_dead_memory",
]

#: fault models whose injection draws and triage proofs consume the
#: occupancy map; ``prepare()`` only pays for the capture pass when the
#: campaign's resolved model is one of these (``chaos`` mixes them in), and
#: the interpreter raises :class:`ValueError` on injecting one without a map.
OCCUPANCY_MODELS = frozenset({
    "memory_word", "mem_transient", "mem_stuck_at", "cache_line",
    "stack_frame", "chaos",
})

#: target number of liveness boundaries per golden run
BOUNDARY_TARGET = 64
#: hard cap on recorded boundaries (same spirit as MAX_SNAPSHOTS)
MAX_BOUNDARIES = 256


def boundary_cadence(golden_instructions: int) -> int:
    """Cycles between liveness boundaries.

    Deliberately independent of the snapshot cadence (and every other
    config knob): the boundaries — and therefore every occupancy-backed
    draw and deadness verdict — are a pure function of the golden run, so
    changing ``--snapshot-every`` keeps memory-model results bit-identical.
    """
    return max(1, golden_instructions // BOUNDARY_TARGET)


class OccupancyRecorder:
    """Capture-protocol object for the occupancy pass.

    Implements the same interface ``_run_compiled`` expects of a
    :class:`~repro.sim.snapshot.SnapshotRecorder` (``next_due`` + ``take``)
    plus ``bind_occupancy``, which the fast path calls to wrap the
    interpreter's load/store address translation with the recording hooks.
    """

    def __init__(self, every: int, l1d_config) -> None:
        self.every = every
        self.next_due = every
        self.cache = ResidencyTracker(l1d_config)
        #: access sequence number, as a one-cell list so the hot wrappers
        #: bump it without attribute lookups
        self._asn = [0]
        self.last_read: Dict[int, int] = {}
        self.first_write: Dict[int, int] = {}
        self.last_write: Dict[int, int] = {}
        self.boundaries: List[Tuple[int, int]] = [(0, 0)]
        self.resident: List[Tuple[int, ...]] = [()]
        self.segment_spans: List[Tuple[str, int, int]] = []
        self.total_words = 0

    def bind_occupancy(self, interp):
        """Wrap ``memory._locate`` for loads and stores; returns the pair
        ``(load_locate, store_locate)`` the fast path installs.

        Word indices live in one global space: each segment (in
        ``unique_segments`` order, which is identical for every fresh
        interpreter over the same module) owns a contiguous range of
        word indices.  Trial-side resolution walks the same order.
        """
        memory = interp.memory
        locate = memory._locate
        base: Dict[int, int] = {}
        spans: List[Tuple[str, int, int]] = []
        word_base = 0
        for seg in memory.unique_segments():
            words = seg.size // 4
            base[id(seg)] = word_base
            spans.append((seg.name, word_base, words))
            word_base += words
        self.segment_spans = spans
        self.total_words = word_base

        asn = self._asn
        last_read = self.last_read
        first_write = self.first_write
        last_write = self.last_write
        cshift = self.cache.line_shift
        touch_line = self.cache.touch_line

        # An access spans every word (and cache line) between its first and
        # last byte: an 8-byte i64/f64/pointer load covers two 32-bit words,
        # and a byte store at offset 4k+3 still only touches word k.  Missing
        # the upper word would let is_dead() declare it "never read" and
        # unsoundly triage a live fault to Masked.

        def load_locate(address, size):
            seg, off = locate(address, size)
            a = asn[0] + 1
            asn[0] = a
            b = base.get(id(seg))
            if b is not None:
                w = off >> 2
                last = (off + size - 1) >> 2
                last_read[b + w] = a
                while w < last:
                    w += 1
                    last_read[b + w] = a
            line = address >> cshift
            touch_line(line)
            end = (address + size - 1) >> cshift
            while line < end:
                line += 1
                touch_line(line)
            return seg, off

        def store_locate(address, size):
            seg, off = locate(address, size)
            a = asn[0] + 1
            asn[0] = a
            b = base.get(id(seg))
            if b is not None:
                w = off >> 2
                last = (off + size - 1) >> 2
                while True:
                    word = b + w
                    if word not in last_write:
                        first_write[word] = a
                    last_write[word] = a
                    if w >= last:
                        break
                    w += 1
            line = address >> cshift
            touch_line(line)
            end = (address + size - 1) >> cshift
            while line < end:
                line += 1
                touch_line(line)
            return seg, off

        return load_locate, store_locate

    def take(self, interp, cb, idx, cycle) -> int:
        """Record one liveness boundary; returns the next due cycle.

        Also trims the register-file write log exactly like
        ``SnapshotRecorder._take`` — any capture object forces the tracked
        compiled variant, whose log would otherwise grow unboundedly.
        """
        interp._regfile.trim()
        self.boundaries.append((cycle, self._asn[0]))
        self.resident.append(self.cache.resident_lines())
        if len(self.boundaries) >= MAX_BOUNDARIES:
            self.next_due = 1 << 62
        else:
            self.next_due = cycle + self.every
        return self.next_due

    def finalize(
        self, output_names: Sequence[str], golden_instructions: int
    ) -> "OccupancyMap":
        """Fold the recorded accesses into an immutable :class:`OccupancyMap`.

        Output-segment words are *always live*: the harness reads them after
        the run through ``read_array`` (which the wrappers never see), so no
        access-based proof can ever declare them dead.  For them the map
        keeps the last access instead, read or write.
        """
        outputs = set(output_names)
        always_live: List[int] = []
        for name, word_base, words in self.segment_spans:
            if name in outputs:
                always_live.extend(range(word_base, word_base + words))
        live_set = set(always_live)
        last_read = self.last_read
        last_write = self.last_write
        output_last_access = {
            w: max(last_read.get(w, 0), last_write.get(w, 0))
            for w in always_live if w in last_read or w in last_write
        }
        occupied = (set(last_read) | set(last_write)) - live_set
        sorted_words = sorted(occupied)
        sorted_asns = [last_read.get(w, 0) for w in sorted_words]
        # Terminal boundary, past every injectable cycle: contributes the
        # end-of-run cache residency to the AVF stats but is never selected
        # by a deadness lookup (reads during the final cycle would postdate
        # an injection there, so no real boundary may sit at golden cycle).
        boundaries = self.boundaries + [(golden_instructions + 1, self._asn[0])]
        resident = self.resident + [self.cache.resident_lines()]
        return OccupancyMap(
            golden_instructions=golden_instructions,
            segment_spans=list(self.segment_spans),
            total_words=self.total_words,
            boundary_cycles=[c for c, _ in boundaries],
            boundary_asns=[a for _, a in boundaries],
            resident_lines=resident,
            always_live=sorted(always_live),
            sorted_words=sorted_words,
            sorted_asns=sorted_asns,
            first_writes=dict(self.first_write),
            cache_line_shift=self.cache.line_shift,
            cache_total_lines=self.cache.total_lines,
            output_last_access=output_last_access,
        )


class FusedCapture:
    """Drive a snapshot recorder and an occupancy recorder in ONE golden run.

    ``prepare()`` uses this when a campaign wants both restore snapshots and
    an occupancy map, so a memory-model prepare pays for exactly one
    instrumented pass — the occupancy cost collapses from a full extra run
    to the load/store wrapper overhead.

    Fusing cannot perturb either product: the fast path checks due-ness at
    the same superblock boundaries regardless of which recorder is attached,
    a ``take`` never advances the cycle counter, and both recorders trim the
    register-file write log identically (keeping only the newest writes that
    can still occupy a slot), so each sub-recorder sees exactly what its
    dedicated pass would.  The resulting map is bit-identical to an
    occupancy-only pass's — asserted by the tests.
    """

    def __init__(self, snapshot_recorder, occupancy_recorder) -> None:
        self.snapshot = snapshot_recorder
        self.occupancy = occupancy_recorder
        self.next_due = min(snapshot_recorder.next_due,
                            occupancy_recorder.next_due)

    def bind_occupancy(self, interp):
        return self.occupancy.bind_occupancy(interp)

    def take(self, interp, cb, idx, cycle) -> int:
        """Dispatch to whichever sub-recorder is due; returns the earlier
        of the two next-due cycles."""
        if cycle >= self.snapshot.next_due:
            self.snapshot.take(interp, cb, idx, cycle)
        if cycle >= self.occupancy.next_due:
            self.occupancy.take(interp, cb, idx, cycle)
        self.next_due = min(self.snapshot.next_due, self.occupancy.next_due)
        return self.next_due


class OccupancyMap:
    """Immutable result of the occupancy pass (see module docstring).

    Word indices are global: ``segment_spans`` is ``(name, base_word,
    words)`` per segment in ``unique_segments`` order.  Deadness lookups
    bisect the boundary arrays; draws are uniform over occupied words
    (always-live output words included).
    """

    def __init__(
        self,
        golden_instructions: int,
        segment_spans: List[Tuple[str, int, int]],
        total_words: int,
        boundary_cycles: List[int],
        boundary_asns: List[int],
        resident_lines: List[Tuple[int, ...]],
        always_live: List[int],
        sorted_words: List[int],
        sorted_asns: List[int],
        first_writes: Dict[int, int],
        cache_line_shift: int,
        cache_total_lines: int,
        output_last_access: Dict[int, int],
    ) -> None:
        self.golden_instructions = golden_instructions
        self.segment_spans = segment_spans
        self.total_words = total_words
        self.boundary_cycles = boundary_cycles
        self.boundary_asns = boundary_asns
        self.resident_lines = resident_lines
        self.always_live = always_live
        self._always_live_set = frozenset(always_live)
        self.sorted_words = sorted_words
        self.sorted_asns = sorted_asns
        self.first_writes = first_writes
        self.cache_line_shift = cache_line_shift
        self.cache_total_lines = cache_total_lines
        #: output word -> access number of its last read or write
        self.output_last_access = output_last_access

    # -- deadness / draws --------------------------------------------------------

    def _boundary_index(self, cycle: int) -> int:
        return max(0, bisect_right(self.boundary_cycles, cycle) - 1)

    def asn_bound(self, cycle: int) -> int:
        """Accesses performed strictly before the largest boundary at-or-
        before ``cycle`` — the sound cutoff for deadness claims."""
        return self.boundary_asns[self._boundary_index(cycle)]

    def is_dead(self, word: int, cycle: int) -> bool:
        """True when no read of ``word`` can occur at-or-after ``cycle``.

        Output words are never dead; an occupied word is dead when its last
        read predates the boundary cutoff; an unoccupied word is never read
        at all.
        """
        if word in self._always_live_set:
            return False
        i = bisect_left(self.sorted_words, word)
        if i == len(self.sorted_words) or self.sorted_words[i] != word:
            return True
        return self.sorted_asns[i] <= self.asn_bound(cycle)

    def is_output(self, word: int) -> bool:
        return word in self._always_live_set

    def output_settled(self, word: int, cycle: int) -> bool:
        """True when the golden run neither reads nor writes output
        ``word`` at-or-after ``cycle`` (same conservative cutoff as
        :meth:`is_dead`), so whatever it holds then is what the run ends
        with."""
        return self.output_last_access.get(word, 0) <= self.asn_bound(cycle)

    def occupied_count(self) -> int:
        return len(self.always_live) + len(self.sorted_words)

    def draw_occupied(self, rng) -> Optional[int]:
        """Uniform draw over occupied words (output words included)."""
        n = self.occupied_count()
        if n == 0:
            return None
        k = rng.randrange(n)
        if k < len(self.always_live):
            return self.always_live[k]
        return self.sorted_words[k - len(self.always_live)]

    def resident_at(self, cycle: int) -> Tuple[int, ...]:
        """L1D lines resident at the largest boundary at-or-before
        ``cycle`` (the golden run's cache state nearest the injection)."""
        return self.resident_lines[self._boundary_index(cycle)]

    # -- word-space resolution ---------------------------------------------------

    def locate_word(self, memory: Memory, word: int) -> Tuple[Segment, int]:
        """Resolve a global word index against a *trial* interpreter's
        memory; raises :class:`MemoryFaultError` (contained, classified)
        when the trial's layout disagrees with the map."""
        segments = memory.unique_segments()
        if len(segments) != len(self.segment_spans):
            raise MemoryFaultError(
                f"occupancy map has {len(self.segment_spans)} segments, "
                f"trial memory has {len(segments)}"
            )
        for (name, word_base, words), seg in zip(self.segment_spans, segments):
            if word < word_base + words:
                if seg.name != name or seg.size // 4 != words:
                    raise MemoryFaultError(
                        f"occupancy segment {name!r} ({words} words) does "
                        f"not match trial segment {seg.name!r}"
                    )
                return seg, (word - word_base) * 4
        raise MemoryFaultError(
            f"word {word} outside occupancy space ({self.total_words} words)"
        )

    def word_of(self, memory: Memory, seg: Segment, offset: int) -> Optional[int]:
        """Inverse of :meth:`locate_word`; None when ``seg`` is unknown to
        the map (deadness then stays unproven — conservative)."""
        for (name, word_base, words), cand in zip(
            self.segment_spans, memory.unique_segments()
        ):
            if cand is seg:
                w = offset >> 2
                return word_base + w if 0 <= w < words else None
        return None

    # -- reporting ---------------------------------------------------------------

    def residency(self) -> List[Dict[str, object]]:
        """Per-structure occupied-bit residency rows for the AVF report."""
        occupied_by_span: Dict[int, int] = {}
        for word in self.always_live + self.sorted_words:
            i = self._span_of(word)
            occupied_by_span[i] = occupied_by_span.get(i, 0) + 1
        rows: List[Dict[str, object]] = []
        for i, (name, _word_base, words) in enumerate(self.segment_spans):
            occ = occupied_by_span.get(i, 0)
            structure = "stack" if name == "__stack__" else f"segment:{name}"
            rows.append({
                "structure": structure,
                "occupied_words": occ,
                "total_words": words,
                "residency": round(occ / words, 6) if words else 0.0,
            })
        if self.resident_lines:
            avg = sum(len(r) for r in self.resident_lines) / len(
                self.resident_lines
            )
        else:  # pragma: no cover - recorder always seeds one boundary
            avg = 0.0
        rows.append({
            "structure": "cache",
            "occupied_words": round(avg, 1),
            "total_words": self.cache_total_lines,
            "residency": round(avg / self.cache_total_lines, 6)
            if self.cache_total_lines else 0.0,
        })
        rows.append({
            "structure": "regfile",
            "occupied_words": None,
            "total_words": None,
            "residency": 1.0,
        })
        return rows

    def _span_of(self, word: int) -> int:
        for i, (_name, word_base, words) in enumerate(self.segment_spans):
            if word < word_base + words:
                return i
        return len(self.segment_spans) - 1  # pragma: no cover


# ---------------------------------------------------------------------------
# injection helpers (consumed by the fault models in repro.sim.faults)
# ---------------------------------------------------------------------------


def triage_dead_memory(interp) -> None:
    """Short-circuit a provably-dead memory hit to Masked (triage only)."""
    if interp._triage:
        raise TriageMasked("dead_memory")


def fill_memory_record(
    record, interp, top_frame, seg: Segment, offset: int,
    before: int, after: int, dead: bool, prefix: str = "mem",
) -> None:
    """Populate the injection record exactly as a full run would see it —
    dead hits must produce byte-identical trial rows with triage on or off.
    """
    record.landed = True
    record.was_live = not dead
    record.value_name = f"<{prefix}:{seg.name}+{offset:#x}>"
    record.type_name = "i32"
    record.before = before
    record.after = after
    frame = top_frame if top_frame is not None else interp._frame
    if frame is not None:
        record.function = frame.function.name


def draw_occupied_word(interp, plan):
    """Shared occupancy-backed target draw: ``(seg, offset, dead)`` or
    None when the map records no occupied word (nothing to corrupt)."""
    occ = interp._occupancy
    word = occ.draw_occupied(interp._rng)
    if word is None:  # pragma: no cover - output words are always occupied
        return None
    seg, offset = occ.locate_word(interp.memory, word)
    return seg, offset, occ.is_dead(word, plan.cycle)
