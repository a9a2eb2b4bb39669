"""Re-convergence cut-off: a trial whose state matches a golden snapshot ends.

Once a trial's fault has fully landed, the fast path compares its state with
every golden snapshot it reaches (``ConvergenceWatch``); on a match the rest
of the run is the golden run, so the trial ends there with the golden end
state plus the output words that differ but are never touched again.  These
tests pin that the cut-off is invisible — results and obs logs are
byte-identical to a from-scratch ``REPRO_FASTPATH=0`` run — that it fires,
and that it stays off where it would be unsound.  ``test_exhaustive_oracle``
flips every word x bit of a tiny kernel at every snapshot boundary with the
cut-off on and off; ``test_exhaustive_dead_region_oracle`` checks the
memory models' dead-region triage against full runs at every occupancy
boundary and the cycles either side of it; and
``test_exhaustive_register_site_oracle`` checks dead-flip triage against
full runs at every register site a plan can hit.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.faultinjection import campaign
from repro.faultinjection.campaign import (
    CampaignConfig,
    draw_plans,
    prepare,
    run_campaign,
    run_trial,
)
from repro.faultinjection.outcomes import Outcome
from repro.faultinjection.resilience import ResiliencePolicy
from repro.sim import faults as faults_mod
from repro.sim import memfaults
from repro.sim import snapshot as snapshot_mod
from repro.sim.faults import FaultModel, InjectionPlan
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

REGISTER_MODELS = ("single_bit", "double_bit", "burst", "stuck_at")
MEMORY_MODELS = (
    "memory_word", "mem_transient", "mem_stuck_at", "cache_line", "chaos",
)
WORKLOADS = ("g721dec", "jpegdec", "tiff2bw")
SCHEMES = ("original", "dup_valchk")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("REPRO_FASTPATH", "REPRO_SNAPSHOT_EVERY", "REPRO_TRIAGE",
                 "REPRO_FAULT_MODEL", "REPRO_BATCH", "REPRO_JOBS"):
        monkeypatch.delenv(name, raising=False)


def _trials(trials):
    """Trial results as comparable text (NaN-safe, every field)."""
    return [repr(t) for t in trials]


def _drive(prepared, plan, config):
    """One trial of ``plan`` (any kind) through the scalar trial driver."""
    interp = campaign._trial_interpreter(prepared, config)
    return campaign._drive_trial(prepared, plan, interp, config, None)


_PREPARED = {}


def _prepared(name, scheme, memory):
    """Shared prepares: one with an occupancy map (memory models), one
    without (register models, whose memory must then match exactly)."""
    key = (name, scheme, memory)
    if key not in _PREPARED:
        model = "mem_transient" if memory else "single_bit"
        _PREPARED[key] = prepare(
            get_workload(name), scheme, CampaignConfig(fault_model=model)
        )
    return _PREPARED[key]


_RECORD_PREFIX_STATS = campaign._record_prefix_stats


def _campaign(prepared, config, log, monkeypatch, fastpath="1"):
    """Run a campaign; returns (trial reprs, main log bytes, stats)."""
    monkeypatch.setenv("REPRO_FASTPATH", fastpath)
    seen = {}

    def record(cfg, result, stats):
        seen.update(stats)
        _RECORD_PREFIX_STATS(cfg, result, stats)

    monkeypatch.setattr(campaign, "_record_prefix_stats", record)
    cfg = replace(config, obs_log=str(log))
    result = run_campaign(prepared.workload, prepared.scheme, cfg,
                          prepared=prepared)
    monkeypatch.delenv("REPRO_FASTPATH")
    return _trials(result.trials), log.read_bytes(), seen


# ---------------------------------------------------------------------------
# (a) differential: cut-off on vs the from-scratch reference interpreter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_campaigns_match_from_scratch(tmp_path, monkeypatch, name, scheme):
    """Every fault model: triage + cut-off (jobs 1) vs REPRO_FASTPATH=0 with
    triage off — identical trials, byte-identical obs logs."""
    trials = 3 if name == "jpegdec" else 5
    converged = 0
    for model in REGISTER_MODELS + MEMORY_MODELS:
        prepared = _prepared(name, scheme, model in MEMORY_MODELS)
        config = CampaignConfig(trials=trials, seed=2014, fault_model=model)
        on, on_log, stats = _campaign(
            prepared, config, tmp_path / f"{model}-on.jsonl", monkeypatch
        )
        ref, ref_log, _ = _campaign(
            prepared, replace(config, triage=False),
            tmp_path / f"{model}-ref.jsonl", monkeypatch, fastpath="0",
        )
        assert on == ref, model
        assert on_log == ref_log, model
        converged += stats["converged"]
    assert converged > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_control_faults_match_from_scratch(monkeypatch, name):
    """Branch-target faults: the cut-off waits for the pending wrong jump,
    then may fire; every trial matches the reference interpreter."""
    prepared = _prepared(name, "dup_valchk", False)
    config = CampaignConfig(seed=3)
    golden = prepared.golden_instructions
    plans = [
        InjectionPlan(cycle=1 + (golden * k) // 9, bit=0, seed=k,
                      kind="control")
        for k in range(8)
    ]
    on = [_drive(prepared, plan, config) for plan in plans]
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    off = replace(config, triage=False)
    ref = [_drive(prepared, plan, off) for plan in plans]
    assert _trials(on) == _trials(ref)


def test_parallel_and_resume_match_serial(tmp_path, monkeypatch):
    """jobs=2 and an interrupted-then-resumed campaign reproduce the
    serial cut-off campaign byte for byte (trials, log, cache-key inputs)."""
    prepared = _prepared("g721dec", "dup_valchk", True)
    converged = 0
    for model in ("mem_transient", "cache_line", "chaos", "single_bit"):
        config = CampaignConfig(trials=8, seed=7, fault_model=model)
        serial, serial_log, stats = _campaign(
            prepared, config, tmp_path / f"{model}-1.jsonl", monkeypatch
        )
        parallel, parallel_log, pstats = _campaign(
            prepared, replace(config, jobs=2),
            tmp_path / f"{model}-2.jsonl", monkeypatch,
        )
        assert parallel == serial and parallel_log == serial_log
        assert pstats["converged"] == stats["converged"]
        converged += stats["converged"]
    assert converged > 0

    config = CampaignConfig(trials=8, seed=7, fault_model="mem_transient")
    serial, serial_log, _ = _campaign(
        prepared, config, tmp_path / "serial.jsonl", monkeypatch
    )
    log = tmp_path / "resumed.jsonl"
    ckpt = tmp_path / "ckpt.json"
    resumable = replace(
        config, obs_log=str(log), checkpoint=str(ckpt),
        resilience=ResiliencePolicy(
            enabled=True, checkpoint_every=1, backoff_seconds=0.0
        ),
    )

    done = []

    def interrupt(trial):
        done.append(trial)
        if len(done) == 3:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_campaign(prepared.workload, prepared.scheme, resumable,
                     prepared=prepared, on_trial=interrupt)
    assert json.loads(ckpt.read_text())["completed"]
    resumed = run_campaign(prepared.workload, prepared.scheme,
                           replace(resumable, jobs=2), prepared=prepared)
    assert _trials(resumed.trials) == serial
    assert log.read_bytes() == serial_log


# ---------------------------------------------------------------------------
# (b) the cut-off fires, including on corrupted-output trials
# ---------------------------------------------------------------------------


def test_cutoff_fires_with_patched_outputs():
    """g721dec dup_valchk mem_transient: trials converge, and some of them
    end with an output word the trial corrupted (ASDC/USDC), which the
    cut-off carries into the golden end state."""
    prepared = _prepared("g721dec", "dup_valchk", True)
    config = CampaignConfig(trials=30, seed=2014, fault_model="mem_transient")
    converged = sdc = 0
    for plan in draw_plans(config, prepared):
        stats = {}
        trial = run_trial(prepared, plan.cycle, plan.bit, plan.seed, config,
                          stats=stats, model=plan.model)
        if stats.get("converged"):
            converged += 1
            assert stats["converged_cycles_saved"] > 0
            full = run_trial(prepared, plan.cycle, plan.bit, plan.seed,
                             replace(config, triage=False), model=plan.model)
            assert repr(trial) == repr(full)
            sdc += trial.is_sdc
    assert converged > 0
    assert sdc > 0


def test_recovery_reads_converged_trials_from_the_interpreter():
    """``run_with_recovery`` on cut-off trials reports what the full runs
    report: the same outputs and instruction totals."""
    from repro.faultinjection.recovery import run_with_recovery

    prepared = _prepared("g721dec", "dup_valchk", True)
    config = CampaignConfig(trials=12, seed=2014, fault_model="mem_transient")
    converged = 0
    for plan in draw_plans(config, prepared):
        stats = {}
        run_trial(prepared, plan.cycle, plan.bit, plan.seed, config,
                  stats=stats, model=plan.model)
        converged += stats.get("converged", 0)
        on = run_with_recovery(prepared, plan, config=config)
        off = run_with_recovery(prepared, plan,
                                config=replace(config, triage=False))
        assert on.total_instructions == off.total_instructions
        assert on.trapped == off.trapped and on.recovered == off.recovered
        assert sorted(on.outputs) == sorted(off.outputs)
        for name in on.outputs:
            assert on.outputs[name].tolist() == off.outputs[name].tolist()
    assert converged > 0


# ---------------------------------------------------------------------------
# test-only fault models: one chosen memory word, flipped exactly
# ---------------------------------------------------------------------------


def _locate(interp, word):
    for seg in interp.memory.unique_segments():
        if word < seg.size // 4:
            return seg, word * 4
        word -= seg.size // 4
    raise AssertionError("word outside mapped memory")


class _WordFlip(FaultModel):
    """Flip bit ``plan.bit`` of global word ``plan.seed`` (words numbered
    over ``unique_segments`` in order).  Not triageable, so between triage
    on and off only the cut-off differs."""

    name = "word_flip"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        seg, offset = _locate(interp, plan.seed)
        before, after = interp.memory.flip_word_bit(seg, offset, plan.bit)
        memfaults.fill_memory_record(
            record, interp, top_frame, seg, offset, before, after, False
        )
        return -1


class _DeadWordFlip(FaultModel):
    """Flip bit ``plan.bit`` of global word ``plan.seed`` and take the
    memory models' dead-region verdict on it: ``OccupancyMap.is_dead`` at
    the injection cycle, then ``triage_dead_memory`` when dead — the path
    ``mem_transient`` and ``mem_stuck_at`` take after
    ``draw_occupied_word``."""

    name = "dead_word_flip"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        occupancy = interp._occupancy
        seg, offset = occupancy.locate_word(interp.memory, plan.seed)
        dead = occupancy.is_dead(plan.seed, plan.cycle)
        before, after = interp.memory.flip_word_bit(seg, offset, plan.bit)
        memfaults.fill_memory_record(
            record, interp, top_frame, seg, offset, before, after, dead
        )
        if dead:
            memfaults.triage_dead_memory(interp)
        return -1


class _RecentRegisterFlip(FaultModel):
    """Flip bit ``plan.bit`` of the register written ``plan.seed``
    retirements before injection (slot tag ``writes - 1 - seed``) and take
    ``single_bit``'s path on it: ``_corrupt_slot``, then
    ``_triage_short_circuit`` when the slot is stale, else
    ``_triage_flip``."""

    name = "recent_register_flip"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        regfile = interp._regfile
        tag = regfile.writes - 1 - plan.seed
        if tag < max(0, regfile.writes - regfile.capacity):
            # Fewer than seed + 1 retirements so far: nothing to corrupt.
            interp._triage_short_circuit()
            return -1
        slot = regfile.slot(tag)
        width = interp.config.register_flip_bits
        live = faults_mod._corrupt_slot(
            interp, record, slot,
            lambda t, v: faults_mod.flip_bit(t, v, plan.bit, width),
        )
        if not live:
            interp._triage_short_circuit()
            return -1
        interp._triage_flip(slot, top_frame, next_index)
        return -1


class _StickyNoop(FaultModel):
    """Lands, changes nothing, and keeps a live memory stuck-at binding for
    the rest of the run (re-forcing nothing)."""

    name = "sticky_noop"

    def inject(self, interp, plan, record, top_frame, next_index) -> int:
        record.landed = True
        seg = interp.memory.unique_segments()[0]
        interp._stuck_mem_fault = (seg, 0, 0, 0, 1 << 40)
        return interp.cycle + 16

    def reapply(self, interp, plan) -> int:
        return interp.cycle + 16


@pytest.fixture
def probe_models(monkeypatch):
    for model in (_WordFlip(), _StickyNoop(), _DeadWordFlip(),
                  _RecentRegisterFlip()):
        monkeypatch.setitem(faults_mod.FAULT_MODELS, model.name, model)


def _word_of(prepared, segment, index):
    """Global word number of ``segment[index]`` (4-byte elements)."""
    for name, base, _words in prepared.occupancy.segment_spans:
        if name == segment:
            return base + index
    raise AssertionError(segment)


class _Spy:
    """Record every comparison the watch makes as ``(probe, keep)``, where
    ``probe(snap, interp)`` looks at the trial state at that instant."""

    def __init__(self, monkeypatch, probe=lambda snap, interp: None):
        self.calls = []
        real = snapshot_mod.Snapshot.converged

        def spy(snap, interp, cb, idx, occupancy):
            seen = probe(snap, interp)
            keep = real(snap, interp, cb, idx, occupancy)
            self.calls.append((seen, keep))
            return keep

        monkeypatch.setattr(snapshot_mod.Snapshot, "converged", spy)


# ---------------------------------------------------------------------------
# (c) targeted cases
# ---------------------------------------------------------------------------

KERNEL = """
input int params[1];
input int src[4];
input int tab[4];
output int once[2];
output int redo[2];
int scratch[4];
float acc[2];

void main() {
    int rounds = params[0];
    for (int i = 0; i < 4; i++) {
        scratch[i] = src[i] * 3 + 1;
    }
    once[0] = scratch[0] + scratch[3];
    for (int r = 0; r < rounds; r++) {
        int sum = 0;
        for (int i = 0; i < 4; i++) {
            sum = sum + tab[i] * scratch[i] + r;
        }
        redo[r & 1] = sum;
        acc[0] = acc[0] + sum * 0.5;
    }
    once[1] = acc[0] + redo[0];
}
"""


class _Kernel(Workload):
    """Tiny kernel covering each access pattern the cut-off reasons about:
    inputs read once (``params``, ``src``), a table read repeatedly
    (``tab``), scratch written then read, an output written once and never
    read (``once[0]``), an output rewritten (``redo[0]``), and 8-byte float
    accesses (``acc``)."""

    name = "convergence_kernel"
    suite = "tests"
    category = "synthetic"
    fidelity_metric = "psnr"
    fidelity_threshold = 30.0
    source = KERNEL

    def train_inputs(self):
        return {"params": [4], "src": [1, 2, 3, 4], "tab": [5, 6, 7, 8]}

    test_inputs = train_inputs


#: snapshot cadence of the kernel (its golden run is 383 instructions)
_KERNEL_EVERY = 25


@pytest.fixture(scope="module")
def kernel():
    return prepare(
        _Kernel(), "original",
        CampaignConfig(fault_model="mem_transient",
                       snapshot_every=_KERNEL_EVERY),
    )


def _kernel_trial(kernel, cycle, word, bit, triage=True, stats=None):
    config = CampaignConfig(snapshot_every=_KERNEL_EVERY, triage=triage)
    return run_trial(kernel, cycle, bit, word, config, stats=stats,
                     model="word_flip")


def _golden_word(snap, segment, index):
    """Word ``index`` of ``segment`` in a golden snapshot."""
    head = next(c[3] for c in snap.segments if c[0] == segment)
    return (head + bytes(4 * index + 4))[4 * index:4 * index + 4]


def test_output_flipped_after_last_write_is_patched(kernel, probe_models):
    """``once[0]`` is written once, early, and never read: flipped after
    that write, the trial converges at the next snapshot with the flip
    kept, and classifies as the full run does (a corrupted output)."""
    word = _word_of(kernel, "once", 0)
    snap = next(s for s in kernel.snapshots.snapshots
                if kernel.occupancy.output_settled(word, s.cycle))
    assert snap is not kernel.snapshots.snapshots[-1]
    stats = {}
    trial = _kernel_trial(kernel, snap.cycle + 1, word, 4, stats=stats)
    full = _kernel_trial(kernel, snap.cycle + 1, word, 4, triage=False)
    assert stats.get("converged") == 1
    assert trial.is_sdc and repr(trial) == repr(full)


def test_output_flipped_before_rewrite_waits_for_it(
    kernel, probe_models, monkeypatch
):
    """``redo[0]`` is written at r=0 and rewritten at r=2: flipped in
    between, no snapshot may match while the flip is still there; once the
    golden rewrite has wiped it, the trial converges, Masked."""
    word = _word_of(kernel, "redo", 0)
    snap = next(s for s in kernel.snapshots.snapshots
                if _golden_word(s, "redo", 0) != bytes(4))
    assert not kernel.occupancy.output_settled(word, snap.cycle)

    def flipped(snap, interp):
        data = interp.global_segments["redo"].data
        return bytes(data[:4]) != _golden_word(snap, "redo", 0)

    spy = _Spy(monkeypatch, flipped)
    stats = {}
    trial = _kernel_trial(kernel, snap.cycle + 1, word, 3, stats=stats)
    assert trial.outcome is Outcome.MASKED and not trial.is_sdc
    assert stats.get("converged") == 1
    assert any(still for still, _ in spy.calls)
    for still, keep in spy.calls:
        assert keep is None or not still  # never cut while it differs


def test_params_flip_that_times_out_stays_failure(kernel, probe_models):
    """A high bit of ``params[0]`` flipped before it is read drives the
    round loop past the instruction budget.  The state never matches a
    snapshot again, so the trial stays a timeout Failure."""
    word = _word_of(kernel, "params", 0)
    stats = {}
    trial = _kernel_trial(kernel, 1, word, 20, stats=stats)
    full = _kernel_trial(kernel, 1, word, 20, triage=False)
    assert trial.outcome is Outcome.FAILURE and trial.trap_kind == "timeout"
    assert repr(trial) == repr(full)
    assert not stats.get("converged")


def test_negative_zero_is_not_zero():
    same = snapshot_mod._same_values
    assert same({1: 0.0, 2: 3}, {1: 0.0, 2: 3})
    assert not same({1: -0.0}, {1: 0.0})
    assert not same({1: 0.0}, {1: -0.0})
    assert not same({1: 1}, {1: 1.0})
    assert not same({1: 1}, {1: True})
    nan = float("nan")
    assert same({1: nan}, {1: nan})  # the golden object itself
    assert not same({1: float("nan")}, {1: nan})  # conservative


def test_short_budget_disables_cutoff(monkeypatch):
    """timeout_factor=0.5: the budget no longer covers the golden run, so
    no trial may be cut off — and results still match triage off."""
    prepared = _prepared("g721dec", "dup_valchk", True)
    assert int(prepared.golden_instructions * 0.5) + 10_000 < (
        prepared.golden_instructions
    )
    config = CampaignConfig(trials=10, seed=2014, fault_model="mem_transient",
                            timeout_factor=0.5)
    spy = _Spy(monkeypatch)
    stats = {}
    on = [
        run_trial(prepared, p.cycle, p.bit, p.seed, config, stats=stats,
                  model=p.model)
        for p in draw_plans(config, prepared)
    ]
    off = [
        run_trial(prepared, p.cycle, p.bit, p.seed,
                  replace(config, triage=False), model=p.model)
        for p in draw_plans(config, prepared)
    ]
    assert _trials(on) == _trials(off)
    assert not spy.calls and not stats.get("converged")


def test_live_stuck_binding_disables_cutoff(kernel, probe_models, monkeypatch):
    """A stuck-at binding that is still live can re-force its bit at any
    later cycle, so the watch never compares, even though this one leaves
    the state golden; a flip of a dead input word, with no binding, is cut
    off at the next snapshot."""
    spy = _Spy(monkeypatch)
    config = CampaignConfig(snapshot_every=_KERNEL_EVERY)
    cycle = kernel.snapshots.snapshots[1].cycle + 1
    stats = {}
    sticky = run_trial(kernel, cycle, 0, 0, config, stats=stats,
                       model="sticky_noop")
    assert sticky.outcome is Outcome.MASKED
    assert not spy.calls and not stats.get("converged")
    dead_flip = _kernel_trial(kernel, cycle, _word_of(kernel, "src", 0), 0,
                              stats=stats)
    assert dead_flip.outcome is Outcome.MASKED
    assert stats.get("converged") == 1


def test_without_occupancy_memory_must_match_exactly(
    kernel, probe_models, monkeypatch
):
    """No occupancy map (as for the register models): a flipped word that
    is dead but still differs blocks every match, while one the golden run
    rewrites converges once the memory is equal again."""
    bare = replace(kernel, occupancy=None)

    def memory_matches(snap, interp):
        return all(
            not list(snapshot_mod._differing_words(seg.data, compact))
            for seg, compact in zip(interp.memory.unique_segments(),
                                    snap.segments)
        )

    spy = _Spy(monkeypatch, memory_matches)
    config = CampaignConfig(snapshot_every=_KERNEL_EVERY)
    cycle = kernel.snapshots.snapshots[4].cycle + 1
    dead, rewritten = {}, {}
    for word, stats in ((_word_of(kernel, "src", 0), dead),
                        (_word_of(kernel, "redo", 0), rewritten)):
        trial = run_trial(bare, cycle, 3, word, config, stats=stats,
                          model="word_flip")
        full = run_trial(bare, cycle, 3, word, replace(config, triage=False),
                         model="word_flip")
        assert repr(trial) == repr(full)
    assert not dead.get("converged") and rewritten.get("converged") == 1
    assert spy.calls
    for matches, keep in spy.calls:
        assert keep is None or (keep == [] and matches)


# ---------------------------------------------------------------------------
# (d) exhaustive oracle on the tiny kernel
# ---------------------------------------------------------------------------

def test_exhaustive_oracle(kernel, probe_models):
    """Every global word x bit of the kernel (plus the first stack words),
    flipped at every snapshot boundary: the cut-off run and the full run
    agree on every trial, and the cut-off fires, patched outputs included.
    """
    stack = next(
        base for name, base, _ in kernel.occupancy.segment_spans
        if name == "__stack__"
    )
    words = list(range(stack)) + [stack, stack + 1]
    converged = patched = 0
    for snap in kernel.snapshots.snapshots:
        for word in words:
            for bit in range(32):
                stats = {}
                on = _kernel_trial(kernel, snap.cycle + 1, word, bit,
                                   stats=stats)
                off = _kernel_trial(kernel, snap.cycle + 1, word, bit,
                                    triage=False)
                assert repr(on) == repr(off), (snap.cycle, word, bit)
                if stats.get("converged"):
                    converged += 1
                    patched += on.is_sdc
    assert converged > 0 and patched > 0


def test_exhaustive_dead_region_oracle(kernel, probe_models, monkeypatch):
    """Every global word of the kernel (``acc``'s 8-byte floats included)
    and the first and last stack words, flipped at each occupancy boundary
    and the cycles either side of it: wherever the occupancy map calls the
    word dead, a flip of bit 0 or 31 triaged to Masked equals the full run,
    record and outcome alike.

    Deadness changes only at boundaries, and within a boundary interval a
    later flip leaves fewer golden reads, so the boundary cycle is the
    hardest case of its interval; the cycles either side catch an
    off-by-one in the boundary lookup.  (Every cycle, 18k trial pairs,
    passes too but costs about 15 s.)"""
    monkeypatch.setattr(
        campaign, "TRIAGEABLE_FAULT_MODELS",
        campaign.TRIAGEABLE_FAULT_MODELS | {"dead_word_flip"},
    )
    occupancy = kernel.occupancy
    stack, stack_words = next(
        (base, words) for name, base, words in occupancy.segment_spans
        if name == "__stack__"
    )
    words = (list(range(stack)) + list(range(stack, stack + 8))
             + list(range(stack + stack_words - 8, stack + stack_words)))
    config = CampaignConfig(snapshot_every=_KERNEL_EVERY)
    full = replace(config, triage=False)
    cycles = sorted({
        cycle for boundary in occupancy.boundary_cycles
        for cycle in (boundary - 1, boundary, boundary + 1)
        if 1 <= cycle <= kernel.golden_instructions
    })
    dead = 0
    for cycle in cycles:
        for word in words:
            if not occupancy.is_dead(word, cycle):
                continue
            dead += 1
            for bit in (0, 31):
                stats = {}
                on = run_trial(kernel, cycle, bit, word, config, stats=stats,
                               model="dead_word_flip")
                off = run_trial(kernel, cycle, bit, word, full,
                                model="dead_word_flip")
                assert stats.get("triaged_dead_memory") == 1, (cycle, word)
                assert repr(on) == repr(off), (cycle, word, bit)
    assert dead > 0


def test_exhaustive_register_site_oracle(kernel, probe_models, monkeypatch,
                                        oracle_bits):
    """Every cycle of the kernel's golden run x each of the 32 most
    recently written registers x each bit of ``--oracle-bits`` (bit 0 by
    default): wherever dead-flip triage short-circuits the flip to Masked,
    stale slot or value never read again, the trial equals the full run,
    record and outcome alike.

    The 32 is ``injection_recent_window``: the injection draw reaches no
    other slot, so these are all the register sites a plan can hit.  Bit 0
    alone can miss an unsound verdict on a value whose low bit a later
    mask discards, so CI's oracle job runs bits 1-31 too."""
    monkeypatch.setattr(
        campaign, "TRIAGEABLE_FAULT_MODELS",
        campaign.TRIAGEABLE_FAULT_MODELS | {"recent_register_flip"},
    )
    config = CampaignConfig(snapshot_every=_KERNEL_EVERY)
    full = replace(config, triage=False)
    window = config.sim.injection_recent_window
    sites = triaged = 0
    for bit in oracle_bits:
        for cycle in range(1, kernel.golden_instructions + 1):
            for back in range(window):
                sites += 1
                stats = {}
                on = run_trial(kernel, cycle, bit, back, config, stats=stats,
                               model="recent_register_flip")
                if not stats.get("triaged_masked"):
                    continue
                triaged += 1
                off = run_trial(kernel, cycle, bit, back, full,
                                model="recent_register_flip")
                assert repr(on) == repr(off), (bit, cycle, back)
    assert 0 < triaged < sites
