"""Tests for the paper's companion/extension features built in this repo:
checkpoint recovery (Section IV-D), control-flow signature checking (the
branch-target protection the paper defers to), multi-input profiling
(Section V's false-positive mitigation), and the control-fault model.
"""

import random

import numpy as np
import pytest

from repro.faultinjection import (
    CampaignConfig,
    RecoveryResult,
    prepare,
    run_with_recovery,
)
from repro.profiling import collect_profiles, collect_profiles_multi
from repro.sim import GuardTrap, InjectionPlan, Interpreter, SimTrap
from repro.transforms import (
    ProtectionConfig,
    apply_scheme,
    compute_check_plans,
    protect_control_flow,
)
from repro.workloads import get_workload
from tests.conftest import build_sum_loop


class TestRecovery:
    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare(get_workload("g721dec"), "dup", CampaignConfig(trials=1))

    def test_no_fault_no_recovery(self, prepared):
        """A plan past the end of the run never fires."""
        plan = InjectionPlan(cycle=prepared.golden_instructions + 1, bit=0)
        result = run_with_recovery(prepared, plan)
        assert not result.recovered and result.replayed_instructions == 0
        assert result.total_instructions == prepared.golden_instructions
        for k, v in prepared.golden_outputs.items():
            assert np.array_equal(v, result.outputs[k])

    def test_detection_recovers_to_golden(self, prepared):
        recovered_any = False
        for seed in range(30):
            plan = InjectionPlan(cycle=5000, bit=seed % 31, seed=seed)
            result = run_with_recovery(
                prepared, plan, checkpoint_interval=10_000
            )
            if result.recovered:
                recovered_any = True
                assert result.detection_cycle is not None
                assert result.replayed_instructions > 0
                for k, v in prepared.golden_outputs.items():
                    assert np.array_equal(v, result.outputs[k])
                break
        assert recovered_any, "no injection triggered a recovery in the sweep"

    def test_finer_checkpoints_replay_less(self, prepared):
        def replay_cost(interval):
            for seed in range(30):
                plan = InjectionPlan(cycle=20_000, bit=seed % 31, seed=seed)
                r = run_with_recovery(
                    prepared, plan, checkpoint_interval=interval
                )
                if r.recovered:
                    return r.replayed_instructions
            return None

        fine = replay_cost(1_000)
        coarse = replay_cost(1_000_000)
        assert fine is not None and coarse is not None
        assert fine < coarse

    def test_bad_interval_rejected(self, prepared):
        with pytest.raises(ValueError):
            run_with_recovery(
                prepared, InjectionPlan(cycle=1, bit=0), checkpoint_interval=0
            )


def _oracle_recovery(prepared, plan, interval, limit):
    """Recovery from scratch: a reference-interpreter faulty run with no
    snapshot restore or triage, then a real fault-free rerun on detection."""
    workload, module = prepared.workload, prepared.module
    interp = Interpreter(
        module, guard_mode="detect", disabled_guards=set(prepared.noisy_guards)
    )
    try:
        outputs, _ = workload.run(
            module, prepared.inputs, interpreter=interp, injection=plan,
            max_instructions=limit,
        )
        return RecoveryResult(outputs, False, None, interp.cycle, 0)
    except GuardTrap as trap:
        detection = trap.cycle
    except SimTrap:
        return RecoveryResult({}, False, None, interp.cycle, 0, trapped=True)
    clean = Interpreter(module, guard_mode="count")
    outputs, _ = workload.run(module, prepared.inputs, interpreter=clean)
    checkpoint = (detection // interval) * interval
    replayed = max(clean.cycle - checkpoint, 0)
    return RecoveryResult(outputs, True, detection, detection + replayed,
                          replayed)


class TestRecoveryDifferential:
    """Recovery on the trial engine (snapshot restore, dead-flip triage,
    golden replay) matches the from-scratch oracle field for field."""

    INTERVAL = 10_000

    @pytest.fixture(scope="class")
    def prepared(self):
        prepared = prepare(
            get_workload("g721dec"), "dup_valchk", CampaignConfig(trials=1)
        )
        assert prepared.snapshots is not None
        return prepared

    def _plans(self, prepared):
        rng = random.Random(0x4EC0)
        golden = prepared.golden_instructions
        default, tight = CampaignConfig(), CampaignConfig(timeout_factor=0.5)
        cases = []
        for i in range(40):
            kind = "control" if i % 4 == 3 else "register"
            # A budget below the golden run makes undetected runs time out.
            config = tight if i % 10 == 0 else default
            cycle = rng.randrange(1, golden // 4 if config is tight else golden)
            plan = InjectionPlan(cycle=cycle, bit=rng.randrange(32),
                                 seed=rng.randrange(1 << 30), kind=kind)
            cases.append((plan, config))
        return cases

    def test_matches_from_scratch_oracle(self, prepared, monkeypatch):
        seen = set()
        for plan, config in self._plans(prepared):
            fast = run_with_recovery(prepared, plan, self.INTERVAL, config)
            budget = (
                int(prepared.golden_instructions * config.timeout_factor)
                + 10_000
            )
            with monkeypatch.context() as env:
                env.setenv("REPRO_FASTPATH", "0")
                slow = _oracle_recovery(prepared, plan, self.INTERVAL, budget)
            for name in ("recovered", "detection_cycle", "total_instructions",
                         "replayed_instructions", "trapped"):
                assert getattr(fast, name) == getattr(slow, name), (plan, name)
            assert fast.outputs.keys() == slow.outputs.keys(), plan
            for k, v in slow.outputs.items():
                assert np.array_equal(v, fast.outputs[k]), (plan, k)
            timed_out = slow.trapped and slow.total_instructions > budget
            seen.add(
                ("timeout" if timed_out else "trapped") if slow.trapped
                else ("recovered" if slow.recovered else "completed",
                      plan.kind)
            )
        assert {"timeout", ("recovered", "register"), ("completed", "register"),
                ("recovered", "control"), ("completed", "control")} <= seen


class TestControlFaults:
    def test_control_fault_lands(self, sum_loop):
        module, _ = sum_loop
        interp = Interpreter(module)
        plan = InjectionPlan(cycle=40, bit=0, seed=3, kind="control")
        try:
            interp.run(inputs={"src": list(range(16))}, injection=plan,
                       max_instructions=100_000)
        except SimTrap:
            pass
        record = interp.injection_record
        assert record is not None and record.landed
        assert record.value_name == "<branch-target>"

    def test_control_faults_cause_visible_damage(self, sum_loop):
        module, _ = sum_loop
        data = list(range(16))
        golden = Interpreter(module).run(inputs={"src": data}).return_value
        visible = 0
        for seed in range(20):
            interp = Interpreter(module)
            plan = InjectionPlan(cycle=30 + seed, bit=0, seed=seed, kind="control")
            try:
                r = interp.run(inputs={"src": data}, injection=plan,
                               max_instructions=100_000)
                visible += r.return_value != golden
            except SimTrap:
                visible += 1
        assert visible > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown injection kind"):
            InjectionPlan(cycle=1, bit=0, kind="thermal")


class TestCfcss:
    def test_fault_free_run_is_clean(self):
        w = get_workload("g721dec")
        module = w.build_module()
        result = protect_control_flow(module)
        assert result.num_guards > 0
        interp = Interpreter(module, guard_mode="count")
        out, run = w.run(module, w.test_inputs(), interpreter=interp)
        assert run.guard_stats.total_failures == 0

    def test_outputs_unchanged(self):
        w = get_workload("tiff2bw")
        base = w.build_module()
        base_out, _ = w.run(base, w.test_inputs())
        module = w.build_module()
        protect_control_flow(module)
        out, _ = w.run(module, w.test_inputs(),
                       interpreter=Interpreter(module, guard_mode="count"))
        for k in base_out:
            assert np.array_equal(base_out[k], out[k])

    def test_detects_branch_target_faults(self):
        w = get_workload("g721dec")
        module = w.build_module()
        protect_control_flow(module)
        inputs = w.test_inputs()
        detected = escaped = 0
        golden_interp = Interpreter(module, guard_mode="count")
        golden_interp.run(inputs=inputs)
        golden = golden_interp.read_global("audio")
        for seed in range(25):
            interp = Interpreter(module, guard_mode="detect")
            plan = InjectionPlan(cycle=2000 + seed * 997, bit=0, seed=seed,
                                 kind="control")
            try:
                interp.run(inputs=inputs, injection=plan, max_instructions=2_000_000)
            except GuardTrap:
                detected += 1
                continue
            except SimTrap:
                continue
            if interp.read_global("audio") != golden:
                escaped += 1
        assert detected > escaped
        assert detected >= 15  # signature checking catches the vast majority

    def test_composes_with_data_protection(self):
        w = get_workload("tiff2bw")
        module = w.build_module()
        stats = apply_scheme(module, "dup")
        result = protect_control_flow(module, next_guard_id=1000)
        interp = Interpreter(module, guard_mode="count")
        out, run = w.run(module, w.test_inputs(), interpreter=interp)
        assert run.guard_stats.total_failures == 0
        assert result.num_guards > 0 and stats.num_eq_guards > 0


class TestMultiInputProfiling:
    def test_combined_ranges_cover_all_inputs(self, sum_loop):
        module, h = sum_loop
        small = {"src": [1] * 16}
        large = {"src": [1000] * 16}
        combined = collect_profiles_multi(module, [small, large])
        profile = combined.get(h["acc_next"])
        assert profile is not None
        assert profile.count == 32
        assert profile.histogram.max > 1000  # saw the large input's values

    def test_requires_inputs(self, sum_loop):
        module, _ = sum_loop
        with pytest.raises(ValueError):
            collect_profiles_multi(module, [])

    def test_multi_input_checks_do_not_misfire(self):
        """Checks trained on both inputs never fire on either input."""
        w = get_workload("kmeans")
        module = w.build_module()
        store = collect_profiles_multi(
            module, [w.train_inputs(), w.test_inputs()]
        )
        config = ProtectionConfig()
        apply_scheme(module, "dup_valchk", profiles=store, config=config)
        for inputs in (w.train_inputs(), w.test_inputs()):
            interp = Interpreter(module, guard_mode="count")
            _, run = w.run(module, inputs, interpreter=interp)
            assert run.guard_stats.total_failures == 0
