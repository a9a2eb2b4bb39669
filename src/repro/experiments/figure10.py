"""Figure 10: static instrumentation statistics.

Per benchmark: state variables, duplicated (shadow) instructions, and
inserted value checks, each as a fraction of the original static IR
instruction count.  The paper reports at most 11.4% duplicated instructions
and at most 8.3% of instructions carrying value checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .reporting import format_table, pct
from .runner import ExperimentCache, global_cache


@dataclass
class Figure10Row:
    benchmark: str
    static_instructions: int
    num_state_variables: int
    num_duplicated: int
    num_value_checks: int

    @property
    def frac_state_variables(self) -> float:
        return self.num_state_variables / max(self.static_instructions, 1)

    @property
    def frac_duplicated(self) -> float:
        return self.num_duplicated / max(self.static_instructions, 1)

    @property
    def frac_value_checks(self) -> float:
        return self.num_value_checks / max(self.static_instructions, 1)


def compute(cache: Optional[ExperimentCache] = None) -> List[Figure10Row]:
    cache = cache or global_cache()
    rows = []
    for name in cache.settings.workloads:
        stats = cache.prepared_module(name, "dup_valchk").scheme_stats
        rows.append(
            Figure10Row(
                benchmark=name,
                static_instructions=stats.instructions_before,
                num_state_variables=stats.num_state_variables,
                num_duplicated=stats.num_duplicated,
                num_value_checks=stats.num_value_checks,
            )
        )
    return rows


def report(cache: Optional[ExperimentCache] = None) -> str:
    rows = compute(cache)
    mean_dup = sum(r.frac_duplicated for r in rows) / len(rows)
    mean_chk = sum(r.frac_value_checks for r in rows) / len(rows)
    table = format_table(
        ["benchmark", "static IR", "state vars", "duplicated", "value checks"],
        [
            (r.benchmark, r.static_instructions,
             f"{r.num_state_variables} ({pct(r.frac_state_variables)})",
             f"{r.num_duplicated} ({pct(r.frac_duplicated)})",
             f"{r.num_value_checks} ({pct(r.frac_value_checks)})")
            for r in rows
        ],
        title="Figure 10: static fractions of IR instructions",
    )
    return (
        f"{table}\n"
        f"mean duplicated: {pct(mean_dup)}   mean value checks: {pct(mean_chk)}"
    )
