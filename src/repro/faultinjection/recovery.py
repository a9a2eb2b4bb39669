"""Recovery integration (paper Section IV-D).

The paper's technique is detection-only and defers to an external recovery
mechanism (Encore, or checkpoint-based schemes restoring ~1000 instructions
of state).  This module models that integration so the repository can
demonstrate end-to-end *correction*, not just detection:

* faults are transient (a single bit flip), so re-execution from any
  checkpoint taken before the fault yields the fault-free result;
* a checkpoint is taken every ``checkpoint_interval`` dynamic instructions;
* on a software detection at cycle ``C``, execution rolls back to the last
  checkpoint at ``floor(C / interval) * interval`` and replays — the
  replayed instructions are the recovery overhead;
* per the paper's once-per-check policy, a guard that fires again after its
  recovery (a false positive) stops triggering recoveries; the prepared
  workload's ``noisy_guards`` are disabled for exactly that reason.

The faulty pass is an ordinary campaign trial (snapshot restore and
dead-flip triage included).  The replay needs no simulation at all: with the
fault removed it is the fault-free execution — same module, same inputs,
guards counting — which is the golden run :func:`~.campaign.prepare`
already did.  So a recovery charges ``golden_instructions - checkpoint``
replayed instructions and ends with the golden outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import settings
from ..sim.faults import InjectionPlan
from . import campaign
from .campaign import CampaignConfig, PreparedWorkload
from .outcomes import Outcome


@dataclass
class RecoveryResult:
    """Outcome of one run under detection + checkpoint recovery."""

    outputs: Dict[str, np.ndarray]
    #: a software check fired and triggered a rollback
    recovered: bool
    #: dynamic cycle of the detection (None when nothing fired)
    detection_cycle: Optional[int]
    #: instructions executed in total, including the discarded prefix and replay
    total_instructions: int
    #: instructions that had to be re-executed after rollback
    replayed_instructions: int
    #: the run ended in an unrecoverable trap (symptom outside software reach)
    trapped: bool = False


def run_with_recovery(
    prepared: PreparedWorkload,
    plan: InjectionPlan,
    checkpoint_interval: int = 100_000,
    config: Optional[CampaignConfig] = None,
) -> RecoveryResult:
    """Inject ``plan``; on a software detection, roll back and replay.

    Returns the (recovered) outputs and the instruction-cost accounting.
    The run's instruction budget is the campaign's (``config.timeout_factor``
    times the golden run).  Hardware traps and timeouts are reported via
    ``trapped=True`` — a real system would recover those through the same
    checkpoints, but the paper classifies them separately (HWDetect), so we
    surface them.  A recovered run (and a flip triaged dead) returns the
    prepared golden output arrays themselves, not copies.
    """
    if checkpoint_interval <= 0:
        raise ValueError("checkpoint_interval must be positive")
    config = settings.resolve(config or CampaignConfig())
    interp = campaign._trial_interpreter(prepared, config)
    stats: Dict[str, int] = {}
    trial = campaign._drive_trial(prepared, plan, interp, config, stats)
    golden_instructions = prepared.golden_instructions

    if trial.outcome is Outcome.SWDETECT:
        # Roll back to the last checkpoint before the detection and replay.
        detection_cycle = trial.event_cycle
        checkpoint = (detection_cycle // checkpoint_interval) * checkpoint_interval
        replayed = max(golden_instructions - checkpoint, 0)
        return RecoveryResult(
            outputs=dict(prepared.golden_outputs),
            recovered=True,
            detection_cycle=detection_cycle,
            total_instructions=detection_cycle + replayed,
            replayed_instructions=replayed,
        )
    if trial.trap_kind:
        return RecoveryResult(
            outputs={},
            recovered=False,
            detection_cycle=None,
            total_instructions=trial.event_cycle,
            replayed_instructions=0,
            trapped=True,
        )
    if "triaged_masked" in stats or "triaged_dead_memory" in stats:
        # Proven dead at injection: the rest of the run is the golden run.
        outputs = dict(prepared.golden_outputs)
        total = golden_instructions
    else:
        # A trial cut off at re-convergence lands here too: its interpreter
        # already holds the golden run's end state and cycle count.
        outputs = {
            name: np.asarray(interp.read_global(name))
            for name in prepared.golden_outputs
        }
        total = interp.cycle
    return RecoveryResult(
        outputs=outputs,
        recovered=False,
        detection_cycle=None,
        total_instructions=total,
        replayed_instructions=0,
    )
