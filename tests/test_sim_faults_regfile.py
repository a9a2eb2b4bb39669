"""Unit tests for bit-flip semantics, the register-file model, caches, and
the branch predictor."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import F64, I1, I8, I32, I64, PTR
from repro.sim import (
    InjectionPlan,
    RegisterFile,
    flip_bit,
    value_change_magnitude,
)
from repro.sim.cache import BranchPredictor, SetAssociativeCache
from repro.sim.config import CacheConfig
import random


class TestFlipBit:
    def test_int_flip_low_bit(self):
        assert flip_bit(I32, 4, 0) == 5
        assert flip_bit(I32, 5, 0) == 4

    def test_int_flip_sign_bit(self):
        assert flip_bit(I32, 0, 31) == -(1 << 31)

    def test_bit_wraps_modulo_width(self):
        assert flip_bit(I8, 0, 8) == flip_bit(I8, 0, 0)

    def test_i1_flip(self):
        assert flip_bit(I1, 0, 0) == 1
        assert flip_bit(I1, 1, 0) == 0

    @given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
           st.integers(min_value=0, max_value=31))
    def test_int_flip_is_involution(self, value, bit):
        assert flip_bit(I32, flip_bit(I32, value, bit), bit) == value

    @given(st.floats(allow_nan=False, width=64),
           st.integers(min_value=0, max_value=63))
    def test_float_flip_is_involution(self, value, bit):
        flipped = flip_bit(F64, value, bit)
        back = flip_bit(F64, flipped, bit)
        assert back == value or (math.isnan(back) and math.isnan(value))

    def test_float_exponent_flip_is_huge(self):
        flipped = flip_bit(F64, 1.0, 62)
        assert abs(flipped) > 1e100 or abs(flipped) < 1e-100

    def test_pointer_flip_respects_width(self):
        assert flip_bit(PTR, 0, 40, pointer_bits=32) == flip_bit(PTR, 0, 8, pointer_bits=32)
        assert flip_bit(PTR, 0, 31, pointer_bits=32) == 1 << 31


class TestChangeMagnitude:
    def test_zero_change(self):
        assert value_change_magnitude(I32, 100, 100) == 0.0

    def test_small_change(self):
        assert value_change_magnitude(I32, 100, 101) == pytest.approx(0.01)

    def test_large_change(self):
        assert value_change_magnitude(I32, 1, 1 + (1 << 20)) > 1000

    def test_infinite_for_nonfinite_floats(self):
        assert value_change_magnitude(F64, 1.0, math.inf) == math.inf

    def test_float_relative(self):
        assert value_change_magnitude(F64, 10.0, 20.0) == pytest.approx(1.0)


class TestInjectionPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            InjectionPlan(cycle=-1, bit=0)
        with pytest.raises(ValueError):
            InjectionPlan(cycle=0, bit=-1)


class TestRegisterFile:
    def test_circular_overwrite(self):
        rf = RegisterFile(4)

        class V:  # stand-in value objects
            pass

        values = [V() for _ in range(6)]
        for v in values:
            rf.write("frame", v)
        held = {s.value_obj for s in rf.occupied_slots()}
        assert held == set(values[2:])  # first two overwritten

    def test_pick_random_none_when_empty(self):
        rf = RegisterFile(4)
        assert rf.pick_random(random.Random(0)) is None

    def test_recent_window_restricts(self):
        rf = RegisterFile(16)

        class V:
            pass

        old = [V() for _ in range(8)]
        new = [V() for _ in range(4)]
        for v in old + new:
            rf.write("f", v)
        rng = random.Random(0)
        picks = {rf.pick_random(rng, recent_window=4).value_obj for _ in range(50)}
        assert picks <= set(new)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RegisterFile(0)

    def test_reset(self):
        rf = RegisterFile(4)
        rf.write("f", object())
        rf.reset()
        assert rf.occupied_slots() == []


class _RingSlot:
    __slots__ = ("frame", "value_obj", "tag")

    def __init__(self) -> None:
        self.frame = None
        self.value_obj = None
        self.tag = -1


class _RingRegisterFile:
    """The eager ring buffer the log-backed :class:`RegisterFile` replaced,
    kept as the oracle: every write overwrites the next slot in turn."""

    def __init__(self, capacity: int) -> None:
        self.slots = [_RingSlot() for _ in range(capacity)]
        self.cursor = 0
        self.writes = 0

    def write(self, frame, value_obj) -> None:
        slot = self.slots[self.cursor]
        slot.frame, slot.value_obj, slot.tag = frame, value_obj, self.writes
        self.writes += 1
        self.cursor = (self.cursor + 1) % len(self.slots)

    def occupied_slots(self):
        return [s for s in self.slots if s.frame is not None]

    def pick_biased(self, rng, recent_window, live_bias, is_live):
        slot = None
        if rng.random() < live_bias:
            candidates = [
                s for s in self.occupied_slots()
                if (recent_window <= 0
                    or s.tag >= self.writes - recent_window)
                and is_live(s)
            ]
            if candidates:
                slot = candidates[rng.randrange(len(candidates))]
        if slot is None:
            slot = self.pick_random(rng, recent_window)
        return slot

    def pick_random(self, rng, recent_window=0):
        occupied = self.occupied_slots()
        if not occupied:
            return None
        if recent_window > 0:
            recent = [s for s in occupied
                      if s.tag >= self.writes - recent_window]
            if recent:
                occupied = recent
        return occupied[rng.randrange(len(occupied))]


def _view(slot):
    return None if slot is None else (slot.tag, slot.frame, slot.value_obj)


@given(
    capacity=st.integers(min_value=1, max_value=40),
    data=st.data(),
    recent_window=st.integers(min_value=0, max_value=48),
    live_bias=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_log_view_picks_like_the_ring_buffer(capacity, data, recent_window,
                                             live_bias, seed):
    """Same picked ``(tag, frame, producer)``, same slot order and the same
    RNG state afterwards, for any capacity, write count (below and above
    capacity), recent window (0 included), live predicate, and for a file
    restored from a snapshot's trimmed log (frames by stack position)."""
    frames = [f"frame{i}" for i in range(3)]
    producers = [object() for _ in range(5)]
    writes = [
        (data.draw(st.sampled_from(frames)),
         data.draw(st.sampled_from(producers)))
        for _ in range(data.draw(st.integers(min_value=0,
                                             max_value=3 * capacity + 2)))
    ]
    live = data.draw(st.sets(st.sampled_from(producers)))

    def is_live(slot):
        return slot.value_obj in live and slot.frame != "frame0"

    oracle = _RingRegisterFile(capacity)
    for frame, obj in writes:
        oracle.write(frame, obj)
    # The same history as a restored run sees it: ``base`` writes dropped,
    # then the snapshot's entries (frames by stack position), then appends.
    base = data.draw(st.integers(min_value=0,
                                 max_value=max(0, len(writes) - capacity)))
    split = data.draw(st.integers(min_value=base, max_value=len(writes)))
    restored = [(frames.index(f), obj) for f, obj in writes[base:split]]
    views = [RegisterFile(capacity), RegisterFile(capacity, restored,
                                                  tuple(frames), base)]
    for frame, obj in writes:
        views[0].write(frame, obj)
    for frame, obj in writes[split:]:
        views[1].log.append((frame, obj))
    if data.draw(st.booleans()):
        views[1].trim()

    def run(rf):
        rng = random.Random(seed)
        picks = [_view(rf.pick_biased(rng, recent_window, live_bias, is_live)),
                 _view(rf.pick_random(rng, recent_window))]
        return picks, [_view(s) for s in rf.occupied_slots()], rng.getstate()

    expected = run(oracle)
    for rf in views:
        assert rf.writes == len(writes)
        assert run(rf) == expected


class TestCache:
    def test_hit_after_miss(self):
        cache = SetAssociativeCache(CacheConfig(1024, 2, 64))
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x1004)  # same line

    def test_lru_eviction(self):
        cache = SetAssociativeCache(CacheConfig(256, 2, 64))  # 2 sets
        a, b, c = 0x0, 0x100, 0x200  # all map to set 0 (line = addr>>6; sets=2)
        cache.access(a)
        cache.access(b)
        cache.access(c)  # evicts a
        assert not cache.access(a)

    def test_miss_rate(self):
        cache = SetAssociativeCache(CacheConfig(1024, 2, 64))
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)


class TestBranchPredictor:
    def test_learns_stable_direction(self):
        bp = BranchPredictor()
        for _ in range(4):
            bp.predict_and_update(1, True)
        assert bp.predict_and_update(1, True)

    def test_mispredicts_on_flip(self):
        bp = BranchPredictor()
        for _ in range(4):
            bp.predict_and_update(1, True)
        assert not bp.predict_and_update(1, False)

    def test_accuracy_tracks(self):
        bp = BranchPredictor()
        for i in range(100):
            bp.predict_and_update(7, True)
        assert bp.accuracy > 0.9
