"""Chaos-fuzz harness: hammer the simulator with randomized corruptions.

The fault-model hierarchy (:mod:`repro.sim.faults`) and the containment
boundary (:class:`~repro.sim.events.HarnessContainedTrap`) promise that *any*
injected corruption — whatever model, whatever state it lands in — ends in a
classified :class:`~repro.faultinjection.outcomes.Outcome`.  This module is
the enforcement arm of that promise: it sweeps thousands of randomized
corruptions across workloads × schemes × fault models and asserts the
campaign-level invariants that unit tests cannot economically cover:

* **every trial terminates with a classified outcome** — exactly one of the
  five paper categories, with the plan's fault model stamped on the trial;
* **zero escaped exceptions** — ``run_campaign`` never raises out of a
  trial, no matter how exotically the corrupted program dies;
* **zero worker deaths** — the ``resilience.worker_failure`` /
  ``resilience.serial_fallback`` counters stay flat, i.e. no corruption
  manages to take a worker process down with it.

A runaway corrupted loop needs no invariant of its own: the simulated
instruction budget (``timeout_factor``) ends it as a classified Failure.

Violations are collected (not raised) into a :class:`ChaosReport` so one bad
configuration does not hide the others; ``scripts/chaos_fuzz.py`` is the CLI
wrapper and the CI ``chaos-smoke`` job runs it on every push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..obs.metrics import enable_global, global_registry
from ..sim.faults import CHAOS_FAULT_MODEL, CONCRETE_FAULT_MODELS
from ..workloads.registry import get_workload
from .campaign import CampaignConfig, prepare, run_campaign
from .outcomes import Outcome

__all__ = [
    "DEFAULT_MODELS",
    "ChaosReport",
    "ChaosViolation",
    "run_chaos_sweep",
]

#: every concrete model plus the per-trial 'chaos' mix
DEFAULT_MODELS = CONCRETE_FAULT_MODELS + (CHAOS_FAULT_MODEL,)

#: growth in any of these during a campaign means a corruption broke the
#: execution machinery instead of being contained inside its trial
_RESILIENCE_COUNTERS = (
    "resilience.worker_failure",
    "resilience.serial_fallback",
)

_OUTCOME_NAMES = tuple(o.value for o in Outcome)


@dataclass
class ChaosViolation:
    """One broken invariant, pinned to the campaign that broke it."""

    kind: str  # escaped_exception | worker_death | trial_count |
    #          # unclassified | model_mismatch
    workload: str
    scheme: str
    model: str
    detail: str

    def __str__(self) -> str:
        return (f"[{self.kind}] {self.workload}/{self.scheme} "
                f"model={self.model}: {self.detail}")


@dataclass
class ChaosReport:
    """Aggregated evidence of one chaos sweep."""

    trials: int = 0
    campaigns: int = 0
    #: concrete model -> outcome name -> count (chaos campaigns contribute
    #: to the concrete model each trial actually drew)
    outcome_by_model: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: run-terminating event classes observed (trap_kind values)
    trap_kinds: Dict[str, int] = field(default_factory=dict)
    #: trials ending in a contained harness exception (``contained:*``)
    contained: int = 0
    violations: List[ChaosViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def tally(self, trial) -> None:
        self.trials += 1
        row = self.outcome_by_model.setdefault(
            trial.fault_model, {name: 0 for name in _OUTCOME_NAMES}
        )
        row[trial.outcome.value] = row.get(trial.outcome.value, 0) + 1
        if trial.trap_kind:
            self.trap_kinds[trial.trap_kind] = (
                self.trap_kinds.get(trial.trap_kind, 0) + 1
            )
            if trial.trap_kind.startswith("contained:"):
                self.contained += 1

    def to_json(self) -> Dict:
        return {
            "trials": self.trials,
            "campaigns": self.campaigns,
            "contained": self.contained,
            "ok": self.ok,
            "outcome_by_model": {
                model: dict(row)
                for model, row in sorted(self.outcome_by_model.items())
            },
            "trap_kinds": dict(sorted(self.trap_kinds.items())),
            "violations": [
                {
                    "kind": v.kind,
                    "workload": v.workload,
                    "scheme": v.scheme,
                    "model": v.model,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }

    def render_text(self) -> str:
        lines = [
            "== chaos-fuzz report ==",
            f"campaigns: {self.campaigns}  trials: {self.trials}  "
            f"contained harness exceptions: {self.contained}",
            "",
            "outcomes by fault model:",
        ]
        header = " ".join(f"{name:>9s}" for name in _OUTCOME_NAMES)
        lines.append(f"  {'':12s} {header} {'total':>9s}")
        for model, row in sorted(self.outcome_by_model.items()):
            cells = " ".join(
                f"{row.get(name, 0):9d}" for name in _OUTCOME_NAMES
            )
            lines.append(f"  {model:12s} {cells} {sum(row.values()):9d}")
        if self.trap_kinds:
            lines.append("")
            lines.append("run-terminating events (trap kinds):")
            for kind, count in sorted(self.trap_kinds.items()):
                lines.append(f"  {kind:28s} {count:8d}")
        lines.append("")
        if self.ok:
            lines.append("all invariants held: every trial classified, no "
                         "escaped exceptions, no worker deaths")
        else:
            lines.append(f"VIOLATIONS ({len(self.violations)}):")
            for violation in self.violations:
                lines.append(f"  {violation}")
        return "\n".join(lines)


def _counter_values() -> Dict[str, int]:
    registry = global_registry()
    return {name: registry.counter(name).value for name in _RESILIENCE_COUNTERS}


def _campaign_trials(trials_per_model: int, campaigns_per_model: int) -> int:
    """Trials per campaign so each model totals >= ``trials_per_model``."""
    return -(-trials_per_model // max(1, campaigns_per_model))


def run_chaos_sweep(
    workloads: Sequence[str],
    schemes: Sequence[str],
    trials_per_model: int = 1000,
    seed: int = 2014,
    jobs: int = 1,
    models: Optional[Sequence[str]] = None,
    on_progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Sweep every fault model over ``workloads`` × ``schemes``.

    ``trials_per_model`` is a floor: it is split evenly (rounding up) across
    the workload × scheme campaigns of each model.  Entirely deterministic —
    each campaign's seed is a pure function of ``seed`` and its position in
    the sweep, so a violating configuration can be rerun in isolation with
    ``python -m repro.faultinjection <workload> <scheme> --fault-model
    <model> --seed <campaign seed>``.

    Violations never raise; they are recorded on the returned
    :class:`ChaosReport` so a single bad configuration cannot mask the rest
    of the sweep.
    """
    models = tuple(models) if models is not None else DEFAULT_MODELS
    report = ChaosReport()
    enable_global()
    campaigns_per_model = len(workloads) * len(schemes)
    per_campaign = _campaign_trials(trials_per_model, campaigns_per_model)
    position = 0
    for workload_name in workloads:
        workload = get_workload(workload_name)
        for scheme in schemes:
            prepared = None
            for model in models:
                position += 1
                config = CampaignConfig(
                    trials=per_campaign,
                    # distinct prime stride per campaign: no two campaigns
                    # replay each other's plan stream
                    seed=seed + 7919 * position,
                    jobs=jobs,
                    fault_model=model,
                )
                if on_progress is not None:
                    on_progress(
                        f"{workload_name}/{scheme} model={model} "
                        f"trials={config.trials} seed={config.seed} jobs={jobs}"
                    )
                if prepared is None:
                    # Preparation (compile + protect + golden run) is
                    # model-independent; share it across the model loop.
                    prepared = prepare(workload, scheme, config)
                before = _counter_values()
                report.campaigns += 1
                try:
                    result = run_campaign(
                        workload, scheme, config, prepared=prepared
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as err:  # noqa: BLE001 - the invariant
                    report.violations.append(ChaosViolation(
                        "escaped_exception", workload_name, scheme, model,
                        f"run_campaign raised {type(err).__name__}: {err}",
                    ))
                    continue
                _audit_campaign(
                    report, result, config, before, workload_name, scheme,
                    model,
                )
    return report


def _audit_campaign(
    report: ChaosReport, result, config: CampaignConfig,
    counters_before: Dict[str, int], workload: str, scheme: str, model: str,
) -> None:
    """Check one finished campaign against the sweep invariants."""
    if len(result.trials) != config.trials:
        report.violations.append(ChaosViolation(
            "trial_count", workload, scheme, model,
            f"expected {config.trials} trials, got {len(result.trials)}",
        ))
    for name, before in counters_before.items():
        grew = global_registry().counter(name).value - before
        if grew:
            report.violations.append(ChaosViolation(
                "worker_death", workload, scheme, model,
                f"{name} grew by {grew} during the campaign",
            ))
    for index, trial in enumerate(result.trials):
        report.tally(trial)
        if not isinstance(trial.outcome, Outcome):
            report.violations.append(ChaosViolation(
                "unclassified", workload, scheme, model,
                f"trial {index} outcome {trial.outcome!r} is not an Outcome",
            ))
        expected = (
            CONCRETE_FAULT_MODELS if model == CHAOS_FAULT_MODEL else (model,)
        )
        if trial.fault_model not in expected:
            report.violations.append(ChaosViolation(
                "model_mismatch", workload, scheme, model,
                f"trial {index} carries fault model "
                f"{trial.fault_model!r}",
            ))
