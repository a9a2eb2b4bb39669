"""Section V "Impact of False Positives".

A false positive = a value check failing in a fault-free run (profiled on the
train input, executed on the test input).  The paper reports an average rate
of 1 check failure per 235K instructions and argues (via Racunas et al.) that
up to 1 recovery per 1000 instructions is tolerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .reporting import format_table
from .runner import ExperimentCache, global_cache


@dataclass
class FalsePositiveRow:
    benchmark: str
    instructions: int
    guard_evaluations: int
    failures: int

    @property
    def rate(self) -> float:
        """False positives per instruction."""
        return self.failures / max(self.instructions, 1)

    @property
    def instructions_per_failure(self) -> float:
        if self.failures == 0:
            return float("inf")
        return self.instructions / self.failures


def compute(cache: Optional[ExperimentCache] = None) -> List[FalsePositiveRow]:
    cache = cache or global_cache()
    rows = []
    for name in cache.settings.workloads:
        prepared = cache.golden(name, "dup_valchk")
        rows.append(
            FalsePositiveRow(
                benchmark=name,
                instructions=prepared.golden_instructions,
                guard_evaluations=prepared.golden_guard_evaluations,
                failures=prepared.golden_guard_failures,
            )
        )
    return rows


def aggregate_instructions_per_failure(rows: List[FalsePositiveRow]) -> float:
    """The paper's "1 value check fail per N instructions" aggregate."""
    total_instructions = sum(r.instructions for r in rows)
    total_failures = sum(r.failures for r in rows)
    if total_failures == 0:
        return float("inf")
    return total_instructions / total_failures


def report(cache: Optional[ExperimentCache] = None) -> str:
    rows = compute(cache)
    agg = aggregate_instructions_per_failure(rows)
    table = format_table(
        ["benchmark", "instructions", "check evals", "false positives",
         "instrs/failure"],
        [
            (r.benchmark, r.instructions, r.guard_evaluations, r.failures,
             "inf" if r.failures == 0 else f"{r.instructions_per_failure:.0f}")
            for r in rows
        ],
        title="False positives (value-check failures in fault-free runs)",
    )
    agg_str = "inf" if agg == float("inf") else f"{agg:.0f}"
    return f"{table}\naggregate: 1 failure per {agg_str} instructions"
