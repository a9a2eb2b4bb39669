#!/usr/bin/env python3
"""The full stack, composed: data + control-flow protection + recovery.

The paper's system is detection for data faults; it defers branch-target
faults to signature schemes and recovery to checkpointing.  This example
wires all three together on one benchmark, then attacks the result with both
fault models and reports how each layer earns its keep:

* register bit flips  → caught by duplication + value checks;
* branch-target corruption → caught by CFCSS signatures;
* every detection → rolled back and replayed to a fully correct output.

Run:  python examples/full_protection.py [trials-per-model]
"""

import sys

import numpy as np

from repro.faultinjection import PreparedWorkload, run_with_recovery
from repro.profiling import collect_profiles
from repro.sim import InjectionPlan, Interpreter
from repro.transforms import apply_scheme, protect_control_flow
from repro.workloads import get_workload


def build_fortress(workload):
    """dup + val chks for data faults, CFCSS for control faults."""
    module = workload.build_module()
    profiles = collect_profiles(module, inputs=workload.train_inputs())
    stats = apply_scheme(module, "dup_valchk", profiles=profiles)
    cfcss = protect_control_flow(module, next_guard_id=10_000)
    print(f"protection: {stats.num_duplicated} duplicated instrs, "
          f"{stats.num_value_checks} value checks, "
          f"{cfcss.num_guards} control-flow signatures")
    return module, stats


def golden_run(workload, module, stats):
    """The fault-free run, kept as the trials' reference (and replay)."""
    inputs = workload.test_inputs()
    golden, run = workload.run(
        module, inputs, interpreter=Interpreter(module, guard_mode="count")
    )
    return PreparedWorkload(
        workload=workload,
        scheme="dup_valchk+cfcss",
        module=module,
        scheme_stats=stats,
        inputs=inputs,
        golden_outputs=golden,
        golden_instructions=run.instructions,
        golden_guard_failures=run.guard_stats.total_failures,
        golden_guard_evaluations=run.guard_stats.evaluations,
        noisy_guards=frozenset(run.guard_stats.failures_by_guard),
    )


def attack(prepared, kind, trials):
    golden = prepared.golden_outputs
    outcomes = {"corrected": 0, "clean": 0, "sdc": 0, "trapped": 0}
    for seed in range(trials):
        plan = InjectionPlan(
            cycle=1 + (seed * 6151) % prepared.golden_instructions,
            bit=seed % 31,
            seed=seed,
            kind=kind,
        )
        result = run_with_recovery(prepared, plan, checkpoint_interval=50_000)
        if result.trapped:
            outcomes["trapped"] += 1
        elif result.recovered:
            outcomes["corrected"] += 1
        elif all(np.array_equal(golden[k], result.outputs[k]) for k in golden):
            outcomes["clean"] += 1
        else:
            outcomes["sdc"] += 1
    return outcomes


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    workload = get_workload("g721dec")
    prepared = golden_run(workload, *build_fortress(workload))
    print(f"golden run: {prepared.golden_instructions} instructions, "
          f"{prepared.golden_guard_evaluations} checks, "
          f"{len(prepared.noisy_guards)} noisy checks disabled\n")

    print(f"{'fault model':22s} {'corrected':>9s} {'clean':>6s} "
          f"{'SDC':>4s} {'trapped':>8s}")
    for kind, label in (("register", "register bit flips"),
                        ("control", "branch-target faults")):
        o = attack(prepared, kind, trials)
        print(f"{label:22s} {o['corrected']:9d} {o['clean']:6d} "
              f"{o['sdc']:4d} {o['trapped']:8d}")

    print("\nevery detection above was rolled back and replayed to a")
    print("bit-identical output — detection-only becomes correction once")
    print("checkpointing is attached (paper Section IV-D).")


if __name__ == "__main__":
    main()
