"""Segmented, bounds-checked memory for the simulator.

Every global array and every stack frame lives in its own segment, separated
by unmapped guard gaps.  Any access outside a mapped segment raises a
:class:`~repro.sim.events.MemoryTrap` — the analogue of the page faults the
paper uses as hardware symptoms for soft-error detection.

Layout: segment ``i`` occupies addresses ``[(i+1) << SEGMENT_SHIFT, ... )``.
Address 0 is never mapped, so null-pointer dereferences always trap.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from ..ir.types import F64, FloatType, IntType, IRType, PointerType
from .events import MemoryTrap

#: log2 of the per-segment address stride (1 MiB).
SEGMENT_SHIFT = 20
SEGMENT_STRIDE = 1 << SEGMENT_SHIFT

_F32_STRUCT = struct.Struct("<f")
_F64_STRUCT = struct.Struct("<d")


class MemoryFaultError(Exception):
    """A fault model addressed memory it cannot corrupt (offset outside a
    segment, unmapped alias, occupancy/layout mismatch).

    Deliberately *not* a :class:`~repro.sim.events.SimTrap`: this is a
    harness-side inconsistency, not a simulated hardware symptom.  Raised
    after the injection record exists, it is contained by the interpreter's
    exception boundary and classified as ``contained:MemoryFaultError``
    instead of escaping the trial.
    """

#: element size → struct format char for bulk (unsigned) integer array I/O
_BULK_INT_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}


class Segment:
    """One contiguous mapped region."""

    __slots__ = ("name", "base", "size", "data")

    def __init__(self, name: str, base: int, size: int) -> None:
        self.name = name
        self.base = base
        self.size = size
        self.data = bytearray(size)

    def __repr__(self) -> str:
        return f"<Segment {self.name} @{self.base:#x} +{self.size}>"


class Memory:
    """The simulated address space.

    The interpreter timestamps accesses; this class knows nothing about
    cycles — it raises traps with ``cycle=-1`` and the interpreter re-raises
    with the current cycle filled in.
    """

    def __init__(self) -> None:
        self._segments: Dict[int, Segment] = {}
        self._next_index = 1
        #: optional undo journal: when set to a list, every word-level fault
        #: mutation appends ``("word", seg, offset, before)`` before writing,
        #: so a batched lane sweep can roll the strike back byte-exactly
        #: (see :mod:`repro.sim.batched`).  ``None`` (the default) is free.
        self._journal = None

    # -- mapping -----------------------------------------------------------------

    def map_segment(self, name: str, size: int) -> Segment:
        """Allocate a fresh segment of at least ``size`` bytes."""
        if size <= 0:
            raise ValueError("segment size must be positive")
        index = self._next_index
        span = (size + SEGMENT_STRIDE - 1) >> SEGMENT_SHIFT
        self._next_index += span
        seg = Segment(name, index << SEGMENT_SHIFT, size)
        for i in range(index, index + span):
            self._segments[i] = seg
        return seg

    def unmap_segment(self, seg: Segment) -> None:
        span = (seg.size + SEGMENT_STRIDE - 1) >> SEGMENT_SHIFT
        start = seg.base >> SEGMENT_SHIFT
        for i in range(start, start + span):
            self._segments.pop(i, None)

    def unique_segments(self) -> List[Segment]:
        """Every mapped segment once, in deterministic index order.

        Spanning segments occupy several index entries; the fault models that
        draw a random memory word must see each exactly once, in an order
        that is stable for a given mapping history.
        """
        out: List[Segment] = []
        seen = set()
        for index in sorted(self._segments):
            seg = self._segments[index]
            if id(seg) not in seen:
                seen.add(id(seg))
                out.append(seg)
        return out

    @staticmethod
    def _check_word(seg: Segment, offset: int) -> None:
        if offset < 0 or offset + 4 > seg.size:
            raise MemoryFaultError(
                f"word offset {offset:#x} outside segment {seg.name!r} "
                f"(+{seg.size:#x})"
            )

    def flip_word_bit(self, seg: Segment, offset: int, bit: int) -> Tuple[int, int]:
        """Flip one bit of the 32-bit word at ``offset`` inside ``seg``.

        Returns ``(before, after)`` as raw unsigned words.  Used by the
        memory-hierarchy fault models; ``bit`` is taken modulo 32.  An
        out-of-range offset raises :class:`MemoryFaultError` (contained and
        classified, never an escaped trial).
        """
        self._check_word(seg, offset)
        before = int.from_bytes(seg.data[offset : offset + 4], "little")
        after = before ^ (1 << (bit % 32))
        if self._journal is not None:
            self._journal.append(("word", seg, offset, before))
        seg.data[offset : offset + 4] = after.to_bytes(4, "little")
        return before, after

    def force_word_bit(
        self, seg: Segment, offset: int, bit: int, stuck: int
    ) -> Tuple[int, int]:
        """Force one bit of the word at ``offset`` to ``stuck`` (0 or 1).

        The ``mem_stuck_at`` model calls this at injection and on every
        reapply tick; like :meth:`flip_word_bit`, bad offsets raise
        :class:`MemoryFaultError`.
        """
        self._check_word(seg, offset)
        before = int.from_bytes(seg.data[offset : offset + 4], "little")
        mask = 1 << (bit % 32)
        after = (before | mask) if stuck else (before & ~mask)
        if self._journal is not None:
            self._journal.append(("word", seg, offset, before))
        seg.data[offset : offset + 4] = after.to_bytes(4, "little")
        return before, after

    def locate_fault_word(self, address: int) -> Tuple[Segment, int]:
        """Resolve ``address`` to its aligned backing word for a fault model.

        Unlike :meth:`_locate` this raises :class:`MemoryFaultError` (a
        contained harness error) rather than a :class:`MemoryTrap` — a
        fault model addressing a guard gap is a modelling inconsistency,
        not a simulated page fault.
        """
        seg = self.segment_at(address)
        if seg is None:
            raise MemoryFaultError(f"no mapped segment at {address:#x}")
        offset = (address - seg.base) & ~3
        self._check_word(seg, offset)
        return seg, offset

    def segment_at(self, address: int) -> Optional[Segment]:
        seg = self._segments.get(address >> SEGMENT_SHIFT)
        if seg is None:
            return None
        if address < seg.base or address >= seg.base + seg.size:
            return None
        return seg

    # -- typed access ----------------------------------------------------------------

    def _locate(self, address: int, size: int) -> Tuple[Segment, int]:
        if address <= 0:
            raise MemoryTrap("null", address, -1)
        seg = self._segments.get(address >> SEGMENT_SHIFT)
        if seg is None:
            raise MemoryTrap("unmapped", address, -1)
        offset = address - seg.base
        if offset < 0 or offset + size > seg.size:
            raise MemoryTrap("out-of-bounds", address, -1)
        return seg, offset

    def load(self, type_: IRType, address: int):
        """Read one value of ``type_`` (little-endian) at ``address``."""
        if isinstance(type_, IntType):
            size = type_.size_bytes
            seg, off = self._locate(address, size)
            raw = int.from_bytes(seg.data[off : off + size], "little")
            return type_.wrap(raw)
        if isinstance(type_, FloatType):
            size = type_.size_bytes
            seg, off = self._locate(address, size)
            st = _F64_STRUCT if type_ is F64 else _F32_STRUCT
            return st.unpack_from(seg.data, off)[0]
        if isinstance(type_, PointerType):
            seg, off = self._locate(address, 8)
            return int.from_bytes(seg.data[off : off + 8], "little")
        raise TypeError(f"cannot load value of type {type_}")

    def store(self, type_: IRType, address: int, value) -> None:
        """Write one value of ``type_`` (little-endian) at ``address``."""
        if isinstance(type_, IntType):
            size = type_.size_bytes
            seg, off = self._locate(address, size)
            seg.data[off : off + size] = (value & type_.mask).to_bytes(size, "little")
            return
        if isinstance(type_, FloatType):
            size = type_.size_bytes
            seg, off = self._locate(address, size)
            st = _F64_STRUCT if type_ is F64 else _F32_STRUCT
            try:
                st.pack_into(seg.data, off, value)
            except (OverflowError, ValueError):
                # f32 overflow from a corrupted f64 value saturates to +-inf,
                # as a hardware down-conversion would.
                st.pack_into(seg.data, off, float("inf") if value > 0 else float("-inf"))
            return
        if isinstance(type_, PointerType):
            seg, off = self._locate(address, 8)
            seg.data[off : off + 8] = (value & ((1 << 64) - 1)).to_bytes(8, "little")
            return
        raise TypeError(f"cannot store value of type {type_}")

    # -- bulk access (harness I/O) -----------------------------------------------------

    def write_array(self, seg: Segment, elem_type: IRType, values) -> None:
        """Fill a segment with ``values`` starting at its base.

        Bulk-packs the whole array in one ``struct`` call when possible
        (every trial re-binds its input globals, so this is per-trial hot
        path); falls back to the element-wise typed path for odd element
        sizes, overflowing f32 values (which saturate per element), or
        arrays that do not fit the segment (which must trap at the exact
        offending element, like the reference path).
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        n = len(values)
        step = elem_type.size_bytes  # type: ignore[attr-defined]
        if n and n * step <= seg.size:
            if isinstance(elem_type, IntType):
                fmt = _BULK_INT_FMT.get(step)
                if fmt is not None:
                    mask = elem_type.mask
                    struct.pack_into(
                        f"<{n}{fmt}", seg.data, 0, *[v & mask for v in values]
                    )
                    return
            elif isinstance(elem_type, FloatType):
                try:
                    struct.pack_into(
                        f"<{n}{'d' if elem_type is F64 else 'f'}",
                        seg.data, 0, *values,
                    )
                    return
                except (OverflowError, ValueError):
                    pass  # f32 saturation handled element-wise below
        addr = seg.base
        for v in values:
            self.store(elem_type, addr, v)
            addr += step

    def read_array(self, seg: Segment, elem_type: IRType, count: int) -> List:
        """Read ``count`` elements from the start of a segment.

        Bulk-unpacked counterpart of :meth:`write_array`, with the same
        element-wise fallback; integer elements get the identical
        two's-complement normalisation as :meth:`load`.
        """
        step = elem_type.size_bytes  # type: ignore[attr-defined]
        if count and count * step <= seg.size:
            if isinstance(elem_type, IntType):
                fmt = _BULK_INT_FMT.get(step)
                if fmt is not None:
                    if elem_type.bits == 8 * step:
                        # The element fills its format: unpacking it signed
                        # is the two's-complement wrap.
                        return list(struct.unpack_from(
                            f"<{count}{fmt.lower()}", seg.data, 0
                        ))
                    raw = struct.unpack_from(f"<{count}{fmt}", seg.data, 0)
                    mask = elem_type.mask
                    sign = elem_type.sign_bit if elem_type.bits > 1 else 0
                    return [((x & mask) ^ sign) - sign for x in raw]
            elif isinstance(elem_type, FloatType):
                return list(struct.unpack_from(
                    f"<{count}{'d' if elem_type is F64 else 'f'}", seg.data, 0
                ))
        addr = seg.base
        out = []
        for _ in range(count):
            out.append(self.load(elem_type, addr))
            addr += step
        return out
