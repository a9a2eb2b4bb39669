"""Physical-register-file model for fault injection.

The paper injects single bit flips "randomized in both time and space" into
the register file of the simulated core.  Here every value-producing IR
instruction, when it retires, writes its result into the next slot of a
circular physical register file (:data:`SimConfig.phys_int_registers` entries,
256 by default).  An injection picks a random occupied slot:

* If the slot's value is still live in its frame, the flip corrupts the value
  the program will read — an architecturally visible fault.
* If the value is dead (overwritten in the frame, or the frame has returned),
  the flip lands in a stale register and is naturally masked — reproducing the
  large masked fraction the paper observes.

Write ``w`` (counting from 0) lands in slot ``w % capacity`` with tag ``w``,
so the newest ``min(writes, capacity)`` entries of the retirement log *are*
the occupied slots.  :class:`RegisterFile` is that log and nothing else: the
run loops append ``(frame, producer)`` per retirement, and a pick reads the
slots it needs straight off the log.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple


class RegisterSlot:
    """One occupied physical register: the frame and producer of the value
    it holds, and its write tag."""

    __slots__ = ("frame", "value_key", "value_obj", "tag")

    def __init__(self, frame, value_obj, tag: int) -> None:
        self.frame = frame
        self.value_key = id(value_obj)
        self.value_obj = value_obj
        self.tag = tag


class RegisterFile:
    """Circular allocation of physical registers, read off the write log.

    ``log`` holds one ``(frame, producer)`` entry per retirement, oldest
    first; ``base`` writes were dropped before its first entry (only the
    newest ``capacity`` can occupy a slot).  A run restored from a snapshot
    starts with the snapshot's entries as ``restored``, whose frames are
    stack positions into ``frames`` (the restored stack) or stub frames, and
    resolves only the entries a pick reads.
    """

    __slots__ = ("capacity", "log", "base", "_restored", "_frames")

    def __init__(self, capacity: int, restored: Sequence = (),
                 frames: Sequence = (), base: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("register file must have at least one register")
        self.capacity = capacity
        self.log: List[Tuple[object, object]] = []
        self.base = base
        self._restored = restored
        self._frames = frames

    @property
    def writes(self) -> int:
        """Retirements so far, the next write's tag."""
        return self.base + len(self._restored) + len(self.log)

    def write(self, frame, value_obj) -> None:
        """Record that ``value_obj``'s result (in ``frame``) now occupies a register."""
        log = self.log
        log.append((frame, value_obj))
        if len(log) > 2 * self.capacity:
            self.trim()

    def trim(self) -> None:
        """Drop the entries that can no longer occupy a slot."""
        drop = len(self._restored) + len(self.log) - self.capacity
        if drop <= 0:
            return
        self.base += drop
        restored = len(self._restored)
        if drop < restored:
            self._restored = self._restored[drop:]
        else:
            self._restored = ()
            del self.log[:drop - restored]

    def entries(self) -> Iterator[Tuple[object, object]]:
        """Every retained ``(frame, producer)`` entry, oldest first."""
        for tag in range(self.base, self.writes):
            slot = self.slot(tag)
            yield slot.frame, slot.value_obj

    def slot(self, tag: int) -> RegisterSlot:
        """The register written by retirement ``tag`` (a retained entry)."""
        i = tag - self.base
        restored = self._restored
        if i < len(restored):
            frame, obj = restored[i]
            if frame.__class__ is int:
                frame = self._frames[frame]
        else:
            frame, obj = self.log[i - len(restored)]
        return RegisterSlot(frame, obj, tag)

    def _tags(self, recent_window: int) -> List[int]:
        """Tags of the occupied slots, in slot order, restricted to the
        ``recent_window`` newest writes when that is positive.

        Slot ``s`` holds the occupied tag congruent to ``s``: the tags from
        ``split = writes - writes % capacity`` up sit in slots ``0, 1, ...``
        and the older ones after them.
        """
        writes = self.writes
        lo = max(0, writes - self.capacity)
        if recent_window > 0:
            lo = max(lo, writes - recent_window)
        split = writes - writes % self.capacity
        tags = list(range(max(lo, split), writes))
        if lo < split:
            tags.extend(range(lo, split))
        return tags

    def occupied_slots(self) -> List[RegisterSlot]:
        return [self.slot(tag) for tag in self._tags(0)]

    def pick_biased(
        self, rng, recent_window: int, live_bias: float, is_live
    ) -> Optional[RegisterSlot]:
        """Slot pick with a probability-``live_bias`` preference for slots
        whose value ``is_live`` judges still readable.

        Performs the exact RNG call sequence of the historical in-interpreter
        implementation (one ``random()`` draw, then at most one ``randrange``
        over the live candidates in slot order, then :meth:`pick_random` when
        that misses) — injection plans and trial outcomes depend on this
        sequence being stable.
        """
        slot = None
        if rng.random() < live_bias:
            candidates = [
                s for s in map(self.slot, self._tags(recent_window))
                if is_live(s)
            ]
            if candidates:
                slot = candidates[rng.randrange(len(candidates))]
        if slot is None:
            slot = self.pick_random(rng, recent_window)
        return slot

    def pick_random(self, rng, recent_window: int = 0) -> Optional[RegisterSlot]:
        """Random occupied slot (None when nothing has retired yet).

        With ``recent_window > 0`` the choice is restricted to the most
        recently written ``recent_window`` registers — the architecturally
        *mapped* portion of the physical register file, where a flip is
        likely to hit a live value.  A uniform choice over all 256 physical
        registers mostly hits stale (unmapped) registers, which are masked by
        construction; real register-file injection studies (Wang et al.,
        cited by the paper) report much higher architectural visibility.
        """
        tags = self._tags(recent_window)
        if not tags:
            return None
        return self.slot(tags[rng.randrange(len(tags))])

    def reset(self) -> None:
        self.log.clear()
        self.base = 0
        self._restored = ()
        self._frames = ()
