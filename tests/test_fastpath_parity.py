"""Differential tests: compiled fast path vs. reference interpreter.

The fast path (``src/repro/sim/compiled.py``) pre-compiles each function into
per-instruction closures and fuses straight-line runs into superblocks.  These
tests pin down that it is a pure optimisation: every observable — outputs,
instruction counts, guard tallies, fault outcomes, and the exact cycle of
every trap — must be bit-identical to the instruction-at-a-time reference
path (``REPRO_FASTPATH=0``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faultinjection import CampaignConfig, prepare, run_campaign
from repro.sim.interpreter import Interpreter
from repro.workloads.registry import get_workload


def _norm(x):
    """Hashable, bit-exact view of (possibly nested) workload outputs."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return tuple(sorted((k, _norm(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_norm(v) for v in x)
    return x


@pytest.mark.parametrize("name", ["tiff2bw", "g721dec"])
def test_golden_run_matches_reference(name):
    workload = get_workload(name)
    observed = {}
    for fastpath in (False, True):
        module = workload.build_module()
        interp = Interpreter(module, guard_mode="count", fastpath=fastpath)
        outputs, result = workload.run(
            module, workload.test_inputs(), interpreter=interp
        )
        observed[fastpath] = (_norm(outputs), _norm(result), interp.cycle)
    assert observed[True] == observed[False]


@pytest.mark.parametrize("scheme", ["dup", "dup_valchk"])
def test_campaign_matches_reference_bit_exact(scheme, monkeypatch):
    """Same seed, fastpath on vs. off: every TrialResult field must match.

    Dataclass equality covers outcome class, detection cycle (i.e. the exact
    re-timed trap cycle — the sharpest check on superblock trap accounting),
    fidelity metrics, and the injection plan itself.
    """
    config = CampaignConfig(trials=10, seed=5)
    workload = get_workload("tiff2bw")

    monkeypatch.setenv("REPRO_FASTPATH", "0")
    prepared_ref = prepare(workload, scheme, config)
    reference = run_campaign(workload, scheme, config, prepared=prepared_ref)

    monkeypatch.setenv("REPRO_FASTPATH", "1")
    prepared_fast = prepare(workload, scheme, config)
    fast = run_campaign(workload, scheme, config, prepared=prepared_fast)

    assert _norm(prepared_fast.golden_outputs) == _norm(prepared_ref.golden_outputs)
    assert fast.golden_instructions == reference.golden_instructions
    assert fast.golden_guard_failures == reference.golden_guard_failures
    assert fast.trials == reference.trials


def test_obs_event_logs_match_reference_byte_exact(tmp_path, monkeypatch):
    """The fast path must report the same trial events as the reference.

    The event log derives everything from (plan, TrialResult) — including the
    new detector fields (check id/kind, trap kind, event cycle, latency) — so
    the JSONL streams of a fastpath=0 and fastpath=1 campaign must be
    byte-identical, not merely outcome-equal.
    """
    from dataclasses import replace

    config = CampaignConfig(trials=12, seed=5)
    workload = get_workload("tiff2bw")
    logs = {}
    for fastpath in ("0", "1"):
        monkeypatch.setenv("REPRO_FASTPATH", fastpath)
        log = tmp_path / f"fastpath{fastpath}.jsonl"
        prepared = prepare(workload, "dup_valchk", config)
        run_campaign(
            workload, "dup_valchk",
            replace(config, obs_log=str(log)), prepared=prepared,
        )
        logs[fastpath] = log.read_bytes()
    assert logs["1"] == logs["0"]
    # and the log is not trivially empty: it carries real trial records
    assert logs["0"].count(b'"event":"trial"') == config.trials


@pytest.fixture(scope="module")
def tiff_prepared():
    from repro import settings

    workload = get_workload("tiff2bw")
    config = settings.resolve(CampaignConfig(trials=1, seed=5))
    return config, {
        scheme: prepare(workload, scheme, config)
        for scheme in ("original", "dup_valchk")
    }


def test_control_faults_match_reference_through_the_edge_helper(
    tiff_prepared, monkeypatch
):
    """Branch-target faults: the fast path, whose compiled branches take
    their edges themselves, records every trial exactly as the reference
    loop does, trap cycles included.  The edges it hands to the
    interpreter's generic ``_edge`` include both rare kinds of phi input:
    an incoming missing for the (wrong) predecessor, and one that was
    never computed (29 and 6 of the edges these 80 plans take)."""
    import random

    from repro.faultinjection import campaign
    from repro.faultinjection.outcomes import trial_to_record
    from repro.ir.instructions import Phi
    from repro.ir.values import Constant, GlobalVariable, UndefValue
    from repro.sim.faults import InjectionPlan

    edges = []
    real_enter = Interpreter._enter_block

    def spy(self, frame, target, *rest):
        # On the fast path only the generic edge enters blocks this way.
        if self.fastpath:
            missing = uncomputed = False
            for phi in target.instructions:
                if phi.__class__ is not Phi:
                    break
                try:
                    op = phi.incoming_for(frame.block)
                except KeyError:
                    missing = True
                    op = phi.operands[0]  # what the reference loop reads
                if op.__class__ not in (Constant, GlobalVariable,
                                        UndefValue):
                    uncomputed |= id(op) not in frame.values
            edges.append((missing, uncomputed))
        return real_enter(self, frame, target, *rest)

    monkeypatch.setattr(Interpreter, "_enter_block", spy)
    config, prepared = tiff_prepared
    for scheme, prep in prepared.items():
        rng = random.Random(scheme)
        plans = [
            InjectionPlan(
                cycle=rng.randrange(1, prep.golden_instructions + 1),
                bit=0, seed=rng.randrange(1 << 30), kind="control",
            )
            for _ in range(40)
        ]
        records = {}
        for fastpath in ("0", "1"):
            monkeypatch.setenv("REPRO_FASTPATH", fastpath)
            records[fastpath] = [
                trial_to_record(campaign._drive_trial(
                    prep, plan, campaign._trial_interpreter(prep, config),
                    config, None,
                ))
                for plan in plans
            ]
        assert records["1"] == records["0"], scheme
        assert any(r.get("event_cycle") for r in records["1"])
    assert any(missing for missing, _ in edges)
    assert any(uncomputed for _, uncomputed in edges)


def test_phi_moves_are_one_parallel_copy():
    """A loop header whose phis rotate each other (``x, y, z = y, z, x``)
    and read a counter produced in the same superblock: every incoming is
    read before any phi is written, on both paths, in every compiled
    variant (register log and value hook baked in or not)."""
    from repro.ir import I32, IRBuilder, Module
    from repro.ir.verifier import verify_module
    from repro.sim.faults import InjectionPlan

    m = Module()
    fn = m.add_function("main", I32)
    entry, loop, done = (fn.add_block(n) for n in ("entry", "loop", "done"))
    b = IRBuilder(entry)
    b.br(loop)
    b.set_block(loop)
    i, x, y, z = (b.phi(I32, n) for n in "ixyz")
    i_next = b.add(i, b.const(1))
    b.condbr(b.icmp("slt", i_next, b.const(8)), loop, done)
    for phi, start, carried in ((i, 0, i_next), (x, 1, y), (y, 2, z),
                                (z, 3, x)):
        phi.add_incoming(b.const(start), entry)
        phi.add_incoming(carried, loop)
    b.set_block(done)
    b.ret(b.add(b.mul(x, b.const(100)), b.add(b.mul(y, b.const(10)), z)))
    verify_module(m)

    never = InjectionPlan(cycle=10**6, bit=0)  # tracked run, no fault
    hooked = {}
    for fastpath in (False, True):
        for injection in (None, never):
            seen = hooked.setdefault((fastpath, injection is None), [])
            for hook in (None, lambda instr, value: seen.append(value)):
                interp = Interpreter(m, fastpath=fastpath, value_hook=hook)
                # Seven back edges rotate (1, 2, 3) once.
                assert interp.run(injection=injection).return_value == 231
    for untracked in (True, False):
        assert hooked[(True, untracked)] == hooked[(False, untracked)]
        assert len(hooked[(True, untracked)]) > 7 * 4


def test_uncomputed_phi_input_takes_the_generic_edge():
    """A compiled branch whose phi input was never computed (only a control
    fault can cause that) reads nothing into the target: it retakes the
    edge through ``Interpreter._edge``, which reads the input as 0 once a
    control fault has fired and fails loudly otherwise."""
    from repro.ir import I32, Constant, IRBuilder, Module
    from repro.sim.compiled import compile_variants
    from repro.sim.interpreter import Frame

    m = Module()
    fn = m.add_function("main", I32)
    entry, mid, end = (fn.add_block(n) for n in ("entry", "mid", "end"))
    b = IRBuilder(entry)
    x = b.binop("add", Constant(I32, 1), Constant(I32, 2))
    b.br(mid)
    IRBuilder(mid).br(end)
    b = IRBuilder(end)
    p = b.phi(I32)
    p.add_incoming(x, mid)
    b.ret(p)
    assert Interpreter(m).run().return_value == 3

    interp = Interpreter(m)
    (interp._cm,) = compile_variants(m, False, (False,))
    cf = interp._cm.functions[fn]
    for fired in (False, True):
        interp._control_fault_fired = fired
        frame = Frame(fn, None, 0)
        frame.block = mid
        if fired:
            entered = cf.blocks[mid].code[0](interp, frame, frame.values)
            continue
        with pytest.raises(RuntimeError, match="no binding"):
            cf.blocks[mid].code[0](interp, frame, frame.values)
    assert entered is cf.blocks[end]
    assert frame.values[id(p)] == 0
    assert (frame.prev_block, frame.block) == (mid, end)


def _access_module(type_name, op):
    """``main(p)`` loading one ``type_name`` value from ``p``, or
    ``main(p, v)`` storing ``v`` there; ``@buf`` holds four elements."""
    from repro.ir import IRBuilder, Module, parse_type
    from repro.ir.types import PTR, VOID

    t = parse_type(type_name)
    init = {
        "f32": [1.5, -0.0, float("inf"), 3.25],
        "f64": [0.1, -2.5, float("nan"), 1e300],
        "ptr": [0, (1 << 64) - 1, 1 << 20, 12345],
    }.get(type_name)
    if init is None:
        init = [-1, t.min_signed, t.max_signed, 1]
    m = Module()
    m.add_global("buf", t, 4, initializer=init)
    if op == "load":
        fn = m.add_function("main", t, [(PTR, "p")])
        b = IRBuilder(fn.add_block("entry"))
        b.ret(b.load(t, fn.args[0]))
    else:
        fn = m.add_function("main", VOID, [(PTR, "p"), (t, "v")])
        b = IRBuilder(fn.add_block("entry"))
        b.store(fn.args[1], fn.args[0])
        b.ret()
    return m, t.size_bytes


def _access_outcome(m, fastpath, injection, args):
    """The trap (class, kind, address, cycle), the escaping exception, or
    the loaded value and the final bytes of ``@buf``."""
    from repro.sim.events import SimTrap

    interp = Interpreter(m, fastpath=fastpath)
    try:
        result = interp.run(args=args, injection=injection)
    except SimTrap as trap:
        return (type(trap).__name__, getattr(trap, "kind", None),
                getattr(trap, "address", None), trap.cycle, str(trap))
    except (TypeError, ValueError) as err:
        return (type(err).__name__, str(err))
    if fastpath and injection is not None:
        assert interp._cm.variant == (False, False, False)
    return ("ok", repr(result.return_value),
            bytes(interp.global_segments["buf"].data))


@pytest.mark.parametrize(
    "type_name", ["i1", "i8", "i16", "i32", "i64", "f32", "f64", "ptr"]
)
def test_inline_memory_access_matches_reference(type_name):
    """Untracked compiled loads and stores index the segment map inline.
    On a golden run and after an injection (both untracked), every access
    ends as on the reference loop: the same trap class, kind, address and
    cycle (null before unmapped before out-of-bounds, for non-integer
    addresses too, so a negative float is a null trap), or the same loaded
    value and memory bytes, with f32 stores saturating alike."""
    from repro.sim.faults import InjectionPlan
    from repro.sim.memory import SEGMENT_STRIDE

    # Fires before the access, on an empty register file: the access runs
    # on the untracked variant the run switched to.
    early = InjectionPlan(cycle=1, bit=0)
    values = {
        "f32": [1.1, 1e300, -1e300, float("nan")],
        "f64": [1.1, -0.0],
        "ptr": [(1 << 64) + 5, -1],
    }.get(type_name, [-3, (1 << 65) + 0x8000000000000081])
    for op in ("load", "store"):
        m, size = _access_module(type_name, op)
        base = SEGMENT_STRIDE  # @buf is the first segment mapped
        end = base + 4 * size
        addresses = [
            base + size, end - size, end - size // 2, end + 64,
            100 * SEGMENT_STRIDE, 0, -8, float(base), -1.5,
        ]
        for address in addresses:
            for args in ([(address,)] if op == "load"
                         else [(address, v) for v in values]):
                for injection in (None, early):
                    outcome = _access_outcome(m, True, injection, args)
                    assert (
                        outcome == _access_outcome(m, False, injection, args)
                    ), (op, args, injection)
                    if address == -1.5:
                        assert outcome[:3] == ("MemoryTrap", "null", -1.5)
    assert _access_outcome(m, True, None, (base, values[0]))[0] == "ok"
