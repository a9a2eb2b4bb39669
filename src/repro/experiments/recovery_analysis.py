"""Recovery end-to-end analysis (paper Section IV-D).

The paper's scheme is detection-only and assumes a recovery mechanism
(Encore / checkpointing).  This experiment closes the loop on our substrate:
for each benchmark, faults are injected into the Dup + val chks binary and
run under checkpoint recovery — measuring how many faulty runs end with a
*fully correct* output and what the rollback costs.

A trial ends in one of:

* ``corrected`` — a software check fired, rollback + replay produced the
  golden output;
* ``clean`` — the fault was masked (output already golden, no recovery);
* ``acceptable`` — no detection, output differs but is acceptable (ASDC);
* ``escaped`` — no detection and the output is unacceptable (USDC);
* ``trapped`` — a hardware symptom ended the run (HWDetect/Failure path;
  recoverable by the same checkpoints, but accounted separately as the
  paper does).

Each benchmark's row is kept in the on-disk cache (kind ``recovery``),
keyed like a campaign plus the seed, the trial count and
:data:`CHECKPOINT_INTERVAL`; ``mean_recovery_cost`` is stored as
``float.hex``, so a cached row renders bit-identically.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..faultinjection.campaign import CampaignConfig
from ..faultinjection.diskcache import EntryKind, entry_key
from ..faultinjection.recovery import run_with_recovery
from ..sim.faults import InjectionPlan
from .reporting import format_table, pct
from .runner import ExperimentCache, global_cache

CHECKPOINT_INTERVAL = 50_000
#: the protected binaries recovery runs on
SCHEME = "dup_valchk"


@dataclass
class RecoveryRow:
    benchmark: str
    trials: int
    corrected: int
    clean: int
    acceptable: int
    escaped: int
    trapped: int
    #: mean replayed instructions per recovery, as a fraction of the run
    mean_recovery_cost: float

    @property
    def correct_output_rate(self) -> float:
        """Runs ending with a fully golden output."""
        return (self.corrected + self.clean) / max(self.trials, 1)

    def to_dict(self) -> Dict:
        doc = dataclasses.asdict(self)
        doc["mean_recovery_cost"] = self.mean_recovery_cost.hex()
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "RecoveryRow":
        cost = float.fromhex(doc["mean_recovery_cost"])
        return cls(**{**doc, "mean_recovery_cost": cost})


RECOVERY = EntryKind("recovery", RecoveryRow.to_dict, RecoveryRow.from_dict)


def compute(cache: Optional[ExperimentCache] = None) -> List[RecoveryRow]:
    cache = cache or global_cache()
    rows = []
    config = cache.settings.campaign_config()
    trials = max(cache.settings.trials // 2, 5)
    seed = cache.settings.seed
    for name in cache.settings.workloads:
        key = entry_key(
            RECOVERY, cache.prepared_module(name, SCHEME).module, name,
            SCHEME, config, seed=seed, trials=trials,
            checkpoint_interval=CHECKPOINT_INTERVAL,
        )
        rows.append(cache.stored(
            RECOVERY, key, name, SCHEME,
            functools.partial(_measure, cache, name, config, trials, seed),
            trials=trials,
        ))
    return rows


def _measure(cache: ExperimentCache, name: str, config: CampaignConfig,
             trials: int, seed: int) -> RecoveryRow:
    """Run one benchmark's recovery trials."""
    prepared = cache.prepared(name, SCHEME)
    golden = prepared.golden_outputs
    rng = random.Random(seed ^ 0x5EC0)

    counts = dict(corrected=0, clean=0, acceptable=0, escaped=0, trapped=0)
    costs: List[float] = []
    for _ in range(trials):
        plan = InjectionPlan(
            cycle=rng.randrange(1, prepared.golden_instructions + 1),
            bit=rng.randrange(32),
            seed=rng.randrange(1 << 30),
        )
        result = run_with_recovery(
            prepared, plan,
            checkpoint_interval=CHECKPOINT_INTERVAL, config=config,
        )
        if result.trapped:
            counts["trapped"] += 1
            continue
        if result.recovered:
            # The replay is the golden run, so its output is golden.
            counts["corrected"] += 1
            costs.append(
                result.replayed_instructions / prepared.golden_instructions
            )
            continue
        if all(np.array_equal(golden[k], result.outputs[k]) for k in golden):
            counts["clean"] += 1
        else:
            fid = prepared.workload.fidelity(golden, result.outputs)
            counts["acceptable" if fid.acceptable else "escaped"] += 1

    return RecoveryRow(
        benchmark=name,
        trials=trials,
        mean_recovery_cost=sum(costs) / len(costs) if costs else 0.0,
        **counts,
    )


def report(cache: Optional[ExperimentCache] = None) -> str:
    rows = compute(cache)
    table = format_table(
        ["benchmark", "trials", "corrected", "clean", "acceptable",
         "escaped", "trapped", "correct rate", "recovery cost"],
        [
            (r.benchmark, r.trials, r.corrected, r.clean, r.acceptable,
             r.escaped, r.trapped, pct(r.correct_output_rate),
             pct(r.mean_recovery_cost))
            for r in rows
        ],
        title=f"Detection + checkpoint recovery (interval "
              f"{CHECKPOINT_INTERVAL} instructions, Dup + val chks binaries)",
    )
    overall = sum(r.correct_output_rate for r in rows) / max(len(rows), 1)
    return f"{table}\nmean fully-correct-output rate: {pct(overall)}"
