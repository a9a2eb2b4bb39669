"""Property tests for the memory model (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import F64, I1, I8, I16, I32, I64
from repro.sim import Memory, MemoryTrap

INT_TYPES = {I8: 8, I16: 16, I32: 32, I64: 64}


@st.composite
def typed_writes(draw):
    """A list of non-overlapping-agnostic (offset, type, value) writes."""
    writes = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        type_ = draw(st.sampled_from(list(INT_TYPES)))
        bits = INT_TYPES[type_]
        offset = draw(st.integers(min_value=0, max_value=120))
        value = draw(st.integers(min_value=-(1 << (bits - 1)),
                                 max_value=(1 << (bits - 1)) - 1))
        writes.append((offset, type_, value))
    return writes


class TestMemoryProperties:
    @given(typed_writes())
    @settings(max_examples=60)
    def test_last_write_wins(self, writes):
        """After a sequence of writes, reading back each location returns the
        value of the last write that fully covers it (checked for writes with
        no later overlap)."""
        mem = Memory()
        seg = mem.map_segment("s", 128)
        for offset, type_, value in writes:
            mem.store(type_, seg.base + offset, value)

        for i, (offset, type_, value) in enumerate(writes):
            size = type_.size_bytes
            overlapped = any(
                later_off < offset + size and offset < later_off + later_t.size_bytes
                for later_off, later_t, _ in writes[i + 1:]
            )
            if not overlapped:
                assert mem.load(type_, seg.base + offset) == value

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    @settings(max_examples=60)
    def test_i64_round_trip(self, value):
        mem = Memory()
        seg = mem.map_segment("s", 8)
        mem.store(I64, seg.base, value)
        assert mem.load(I64, seg.base) == value

    @given(st.floats(width=64, allow_nan=False))
    @settings(max_examples=60)
    def test_f64_round_trip_exact(self, value):
        mem = Memory()
        seg = mem.map_segment("s", 8)
        mem.store(F64, seg.base, value)
        assert mem.load(F64, seg.base) == value

    @given(st.integers(min_value=1, max_value=(1 << 22)))
    @settings(max_examples=40)
    def test_every_in_bounds_byte_accessible(self, size):
        mem = Memory()
        seg = mem.map_segment("s", size)
        mem.store(I8, seg.base, 1)
        mem.store(I8, seg.base + size - 1, 2)
        assert mem.load(I8, seg.base + size - 1) == 2
        with pytest.raises(MemoryTrap):
            mem.load(I8, seg.base + size)

    @given(st.lists(st.integers(min_value=4, max_value=1 << 16),
                    min_size=2, max_size=8))
    @settings(max_examples=40)
    def test_segments_never_alias(self, sizes):
        mem = Memory()
        segs = [mem.map_segment(f"s{i}", n) for i, n in enumerate(sizes)]
        for i, seg in enumerate(segs):
            mem.store(I32, seg.base, i + 1)
        for i, seg in enumerate(segs):
            assert mem.load(I32, seg.base) == i + 1


@pytest.mark.parametrize("type_", [I1, I8, I16, I32, I64],
                         ids=lambda t: f"i{t.bits}")
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_read_array_matches_wrap_formula(type_, data):
    """``read_array`` equals the unsigned unpack plus two's-complement wrap
    it replaced for types that fill their format (kept here as the
    oracle), and every element equals a scalar ``load``."""
    import struct

    step = type_.size_bytes
    raw = data.draw(st.binary(min_size=step, max_size=step * 24))
    count = len(raw) // step
    mem = Memory()
    seg = mem.map_segment("s", len(raw))
    seg.data[:] = raw
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}[step]
    sign = type_.sign_bit if type_.bits > 1 else 0
    expected = [
        ((x & type_.mask) ^ sign) - sign
        for x in struct.unpack_from(f"<{count}{fmt}", seg.data, 0)
    ]
    got = mem.read_array(seg, type_, count)
    assert got == expected
    assert all(type(v) is int for v in got)
    assert got == [mem.load(type_, seg.base + i * step) for i in range(count)]

