"""Companion experiment: branch-target faults and signature checking.

The paper's fault coverage excludes faults on branch targets and points at
signature-based control-flow checking as the complementary protection
(Section IV-C).  This bench quantifies that claim on our substrate: inject
``control``-kind faults (a branch jumps to a random wrong block) into
unprotected and CFCSS-protected binaries and compare outcomes.
"""

from repro import settings
from repro.experiments.reporting import format_table, pct
from repro.sim import GuardTrap, Interpreter, InjectionPlan, SimTrap
from repro.transforms import protect_control_flow
from repro.workloads import get_workload

BENCHES = ("g721dec", "tiff2bw", "kmeans")


def survey(module, workload, trials, protected):
    inputs = workload.test_inputs()
    golden_interp = Interpreter(module, guard_mode="count")
    _, golden_run = workload.run(module, inputs, interpreter=golden_interp)
    golden = {
        name: golden_interp.read_global(name)
        for name in workload.output_names(module)
    }
    outcomes = {"masked": 0, "swdetect": 0, "symptom": 0, "sdc": 0}
    for seed in range(trials):
        interp = Interpreter(module, guard_mode="detect")
        cycle = 1 + (seed * 7919) % golden_run.instructions
        plan = InjectionPlan(cycle=cycle, bit=0, seed=seed, kind="control")
        try:
            interp.run(inputs=inputs, injection=plan,
                       max_instructions=golden_run.instructions * 10 + 10_000)
        except GuardTrap:
            outcomes["swdetect"] += 1
            continue
        except SimTrap:
            outcomes["symptom"] += 1
            continue
        same = all(
            interp.read_global(name) == golden[name] for name in golden
        )
        outcomes["masked" if same else "sdc"] += 1
    return outcomes


def test_branch_target_faults(benchmark, save_report):
    trials = max(settings.TRIALS.read() // 2, 10)

    def run():
        rows = []
        for name in BENCHES:
            workload = get_workload(name)
            plain = workload.build_module()
            plain_out = survey(plain, workload, trials, protected=False)

            signed = workload.build_module()
            protect_control_flow(signed)
            signed_out = survey(signed, workload, trials, protected=True)
            rows.append((name, "unprotected", plain_out))
            rows.append((name, "cfcss", signed_out))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    for name in BENCHES:
        plain = next(o for n, label, o in rows if n == name and label == "unprotected")
        signed = next(o for n, label, o in rows if n == name and label == "cfcss")
        # signatures convert silent corruptions into detections
        assert signed["swdetect"] > 0
        assert signed["sdc"] <= plain["sdc"]

    table = format_table(
        ["benchmark", "binary", "masked", "SWDetect", "symptom", "SDC"],
        [
            (n, label, o["masked"], o["swdetect"], o["symptom"], o["sdc"])
            for n, label, o in rows
        ],
        title=f"Branch-target faults ({trials} control-fault injections each): "
              "CFCSS signature checking",
    )
    save_report("branch_faults", table)
