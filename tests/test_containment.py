"""Crash containment: exact trap_kind/Outcome mapping per trap class.

Each handwritten IR program computes a benign checksum, then reads a one-word
``flag`` input late in the run; when the flag is non-zero it deliberately
provokes one specific trap (bad load / divide-by-zero / infinite recursion /
infinite loop).  A stub fault model flips the flag word at injection time, so
the trap is a deterministic *consequence of the injected corruption* — which
lets these tests pin down the exact (outcome, trap_kind) classification for
every run-terminating event, including the ``contained:*`` taxonomy for
harness exceptions the corruption provokes inside the simulator itself.
"""

from __future__ import annotations

import struct

import pytest

from repro.faultinjection.campaign import CampaignConfig, prepare, run_trial
from repro.faultinjection.outcomes import Outcome
from repro.obs import events as obs_events
from repro.sim.config import SimConfig
from repro.sim.events import GuardTrap, HarnessContainedTrap
from repro.sim.faults import FAULT_MODELS, FaultModel
from repro.ir import I32, IRBuilder, Module, verify_module
from repro.workloads.base import Workload

N = 8


def build_flag_trap_module(kind: str) -> Module:
    """A program that traps with ``kind`` iff the ``flag`` input is non-zero.

    Golden runs (flag == 0) compute ``dst[0] = sum(src)`` and finish clean;
    a corrupted run that sets the flag reaches the trap block.
    """
    m = Module(f"trap_{kind}")
    flag = m.add_global("flag", I32, 1, is_input=True)
    src = m.add_global("src", I32, N, is_input=True)
    dst = m.add_global("dst", I32, 1, is_output=True)

    rec = None
    if kind == "stack_overflow":
        # rec(x): x != 0 ? rec(x) : 0 — bottomless for any non-zero input
        rec = m.add_function("rec", I32, arg_types=[(I32, "x")])
        r_entry = rec.add_block("entry")
        r_again = rec.add_block("again")
        r_done = rec.add_block("done")
        rb = IRBuilder(r_entry)
        x = rec.args[0]
        r_cond = rb.icmp("ne", x, rb.const(0))
        rb.condbr(r_cond, r_again, r_done)
        rb.set_block(r_again)
        deeper = rb.call(rec, [x])
        rb.ret(deeper)
        rb.set_block(r_done)
        rb.ret(rb.const(0))

    fn = m.add_function("main", I32)
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    body = fn.add_block("body")
    check = fn.add_block("check")
    trap = fn.add_block("trap")
    exit_ = fn.add_block("exit")

    b = IRBuilder(entry)
    b.br(header)

    b.set_block(header)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    cond = b.icmp("slt", i, b.const(N))
    b.condbr(cond, body, check)

    b.set_block(body)
    loaded = b.load(I32, b.gep(src, i, I32))
    acc_next = b.add(acc, loaded)
    i_next = b.add(i, b.const(1))
    b.br(header)

    i.add_incoming(b.const(0), entry)
    i.add_incoming(i_next, body)
    acc.add_incoming(b.const(0), entry)
    acc.add_incoming(acc_next, body)

    b.set_block(check)
    flag_val = b.load(I32, b.gep(flag, b.const(0), I32), "flagval")
    armed = b.icmp("ne", flag_val, b.const(0))
    b.condbr(armed, trap, exit_)

    b.set_block(trap)
    if kind == "memory":
        # src has N words; index far past it stays inside the segment's
        # address page but out of bounds -> MemoryTrap
        b.load(I32, b.gep(src, b.const(1 << 12), I32))
        b.br(exit_)
    elif kind == "arithmetic":
        # flag == 1 in the corrupted run, so the divisor is zero
        b.sdiv(b.const(1), b.sub(b.const(1), flag_val))
        b.br(exit_)
    elif kind == "timeout":
        spin = fn.add_block("spin")
        b.br(spin)
        b.set_block(spin)
        b.condbr(armed, spin, exit_)  # flag never changes: spins forever
    elif kind == "stack_overflow":
        b.call(rec, [flag_val])
        b.br(exit_)
    else:  # pragma: no cover - test author error
        raise ValueError(kind)

    b.set_block(exit_)
    b.store(acc, b.gep(dst, b.const(0), I32))
    b.ret(acc)

    verify_module(m)
    return m


class IRWorkload(Workload):
    """Adapter running a handwritten module through the campaign machinery."""

    suite = "tests"
    category = "synthetic"
    fidelity_metric = "psnr"
    fidelity_threshold = 30.0

    def __init__(self, name: str, module: Module, inputs: dict) -> None:
        self.name = name
        self._module = module
        self._inputs = inputs

    def build_module(self) -> Module:
        return self._module

    def train_inputs(self):
        return dict(self._inputs)

    def test_inputs(self):
        return dict(self._inputs)


class FlagFlipFault(FaultModel):
    """Stub model: flip bit 0 of the ``flag`` global's word (0 -> 1)."""

    name = "flag_flip"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        seg = next(
            s for s in interp.memory.unique_segments() if s.name == "flag"
        )
        before, after = interp.memory.flip_word_bit(seg, 0, 0)
        record.landed = True
        record.was_live = True
        record.value_name = "<mem:flag+0x0>"
        record.type_name = "i32"
        record.before = before
        record.after = after
        return -1


class RaisingFault(FaultModel):
    """Stub model: the injection itself explodes with a Python exception."""

    name = "raising"

    def __init__(self, exc: BaseException) -> None:
        self._exc = exc

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        record.landed = True
        raise self._exc


class LateRaisingFault(FaultModel):
    """Raises on the *re-fire* visit, well after the injection cycle."""

    name = "late_raising"

    def __init__(self, delay: int) -> None:
        self.delay = delay

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        record.landed = True
        return interp.cycle + self.delay

    def reapply(self, interp, plan) -> int:
        raise ValueError("delayed corruption consequence")


class GuardRaisingFault(FaultModel):
    """Raises a GuardTrap directly (software-check detection path)."""

    name = "guard_raising"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        record.landed = True
        raise GuardTrap(5, "range", interp.cycle)


def _workload(kind: str) -> IRWorkload:
    return IRWorkload(
        f"trap_{kind}",
        build_flag_trap_module(kind),
        {"flag": [0], "src": list(range(1, N + 1))},
    )


def _config(**kwargs) -> CampaignConfig:
    defaults = dict(trials=4, seed=3)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


def _run_with_model(monkeypatch, kind, model, config=None, cycle=2, bit=0):
    monkeypatch.setitem(FAULT_MODELS, model.name, model)
    config = config or _config()
    prepared = prepare(_workload(kind), "original", config)
    return run_trial(prepared, cycle, bit, 1, config, model=model.name)


class TestTrapKindMapping:
    """Each trap class maps to exactly one (outcome, trap_kind) pair."""

    @pytest.mark.parametrize(
        "kind,outcome,trap_kind",
        [
            ("memory", Outcome.HWDETECT, "memory"),
            ("arithmetic", Outcome.HWDETECT, "arithmetic"),
            ("stack_overflow", Outcome.HWDETECT, "stack_overflow"),
            ("timeout", Outcome.FAILURE, "timeout"),
        ],
    )
    def test_flag_triggered_trap(self, monkeypatch, kind, outcome, trap_kind):
        config = _config(
            symptom_window=10_000, sim=SimConfig(max_call_depth=16)
        )
        trial = _run_with_model(monkeypatch, kind, FlagFlipFault(), config)
        assert trial.outcome is outcome
        assert trial.trap_kind == trap_kind
        assert trial.landed and trial.was_live
        assert trial.event_cycle is not None
        assert trial.event_cycle > trial.injection_cycle
        assert trial.fault_model == "flag_flip"

    def test_trap_outside_symptom_window_is_failure(self, monkeypatch):
        # Same memory trap, but a zero-cycle symptom window: the trap fires
        # strictly after injection, so it must classify as Failure.
        trial = _run_with_model(
            monkeypatch, "memory", FlagFlipFault(), _config(symptom_window=0)
        )
        assert trial.outcome is Outcome.FAILURE
        assert trial.trap_kind == "memory"

    def test_guard_trap_maps_to_swdetect(self, monkeypatch):
        trial = _run_with_model(monkeypatch, "memory", GuardRaisingFault())
        assert trial.outcome is Outcome.SWDETECT
        assert trial.trap_kind == "guard"
        assert trial.detector_guard == 5
        assert trial.detector_kind == "range"

    def test_golden_run_never_traps(self):
        # flag == 0: every program completes and matches its own golden.
        for kind in ("memory", "arithmetic", "timeout", "stack_overflow"):
            config = _config(sim=SimConfig(max_call_depth=16))
            prepared = prepare(_workload(kind), "original", config)
            assert prepared.golden_instructions > 0


class TestContainment:
    """Post-injection Python exceptions become classified contained traps."""

    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("corrupted operand"),
            RecursionError("corrupted call target"),
            OverflowError("value outside packable range"),
            struct.error("bad pack"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_injection_exception_is_contained(self, monkeypatch, exc):
        trial = _run_with_model(monkeypatch, "memory", RaisingFault(exc))
        assert trial.outcome is Outcome.HWDETECT  # latency 0 <= window
        assert trial.trap_kind == f"contained:{type(exc).__name__}"
        assert trial.fault_model == "raising"

    def test_late_contained_exception_is_failure(self, monkeypatch):
        # The corruption's consequence fires on the re-fire visit, beyond
        # the symptom window -> Failure, still classified, never escaped.
        trial = _run_with_model(
            monkeypatch, "memory", LateRaisingFault(delay=50),
            _config(symptom_window=10),
        )
        assert trial.outcome is Outcome.FAILURE
        assert trial.trap_kind == "contained:ValueError"

    def test_pre_injection_exception_escapes(self, monkeypatch):
        # Before the fault lands the run is golden; an exception there is a
        # harness bug and must surface, not be classified as a trial result.
        config = _config()
        prepared = prepare(_workload("memory"), "original", config)

        def broken_run(*args, **kwargs):
            raise ValueError("harness bug")

        monkeypatch.setattr(prepared.workload, "run", broken_run)
        with pytest.raises(ValueError, match="harness bug"):
            run_trial(prepared, 2, 0, 1, config)

    def test_contained_trap_self_describes(self):
        trap = HarnessContainedTrap("OverflowError", "too big", cycle=42)
        assert trap.trap_kind == "contained:OverflowError"
        assert trap.cycle == 42
        assert "OverflowError" in str(trap)


class TestObsEventFields:
    """Trial events carry the trap kind and non-default fault model."""

    def test_contained_campaign_events(self, monkeypatch, tmp_path):
        from repro.faultinjection.campaign import run_campaign

        monkeypatch.setitem(FAULT_MODELS, "flag_flip", FlagFlipFault())
        log = tmp_path / "trials.jsonl"
        config = _config(
            trials=6, fault_model="flag_flip", obs_log=str(log),
            symptom_window=10_000,
        )
        result = run_campaign(_workload("memory"), "original", config)
        assert result.fault_model == "flag_flip"
        events, skipped = obs_events.read_events(log)
        assert skipped == 0
        trials = [e for e in events if e["event"] == "trial"]
        assert len(trials) == config.trials
        begin = next(e for e in events if e["event"] == "campaign_begin")
        assert begin["fault_model"] == "flag_flip"
        for event, trial in zip(trials, result.trials):
            assert event["fault_model"] == "flag_flip"
            assert event["outcome"] == trial.outcome.value
            assert event["trap"] == trial.trap_kind
            # any trial injected before the flag read must end in the trap
            if trial.trap_kind:
                assert trial.trap_kind == "memory"
