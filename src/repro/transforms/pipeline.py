"""Protection-scheme pipelines: the paper's evaluated configurations.

* ``original``   — unmodified module;
* ``dup``        — state-variable duplication only (Figure 11/12 "Dup only");
* ``dup_valchk`` — duplication + expected-value checks with Optimizations 1
  and 2 (Figure 11/12 "Dup + val chks") — the paper's proposed scheme;
* ``full_dup``   — the SWIFT-style full-duplication baseline.

:func:`apply_scheme` mutates a freshly-built module in place, verifies the
result, and returns the static statistics Figure 10 reports (state variables,
duplicated instructions, and value checks as fractions of static IR
instructions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..ir.module import Module
from ..ir.verifier import verify_module
from ..profiling.profiles import ProfileStore
from .checkconfig import ProtectionConfig
from .duplication import duplicate_state_variables
from .fulldup import full_duplication
from .valuechecks import (
    apply_optimization1,
    compute_check_plans,
    insert_checks,
)

SCHEMES = ("original", "dup", "dup_valchk", "full_dup")


@dataclass
class SchemeStats:
    """Static instrumentation statistics for one protected module."""

    scheme: str
    instructions_before: int = 0
    instructions_after: int = 0
    num_state_variables: int = 0
    num_duplicated: int = 0
    num_value_checks: int = 0
    num_eq_guards: int = 0
    checks_by_kind: Dict[str, int] = field(default_factory=dict)
    #: amenable instructions before Optimization 1 filtering
    num_amenable: int = 0

    @property
    def frac_state_variables(self) -> float:
        """State variables / static IR instructions (Figure 10, first bar)."""
        return self.num_state_variables / max(self.instructions_before, 1)

    @property
    def frac_duplicated(self) -> float:
        """Duplicated instructions / static IR instructions (Figure 10)."""
        return self.num_duplicated / max(self.instructions_before, 1)

    @property
    def frac_value_checks(self) -> float:
        """Value checks / static IR instructions (Figure 10)."""
        return self.num_value_checks / max(self.instructions_before, 1)


def apply_scheme(
    module: Module,
    scheme: str,
    profiles: Optional[ProfileStore] = None,
    config: Optional[ProtectionConfig] = None,
    verify: bool = True,
) -> SchemeStats:
    """Apply ``scheme`` to ``module`` in place and return its statistics.

    ``dup_valchk`` requires ``profiles`` (a prior value-profiling run on the
    same module instance — see :func:`repro.profiling.collect_profiles`).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    config = config or ProtectionConfig()
    stats = SchemeStats(scheme=scheme, instructions_before=module.num_instructions())

    if scheme == "original":
        stats.instructions_after = stats.instructions_before
        return stats

    if scheme == "dup":
        dup = duplicate_state_variables(module, config, check_plans=None)
        stats.num_state_variables = len(dup.state_variables)
        stats.num_duplicated = dup.num_shadow_instructions
        stats.num_eq_guards = dup.num_guards

    elif scheme == "dup_valchk":
        if profiles is None:
            raise ValueError("scheme 'dup_valchk' requires value profiles")
        plans = compute_check_plans(module, profiles, config)
        stats.num_amenable = len(plans)
        dup = duplicate_state_variables(
            module,
            config,
            check_plans=plans if config.optimization2 else None,
        )
        stats.num_state_variables = len(dup.state_variables)
        stats.num_duplicated = dup.num_shadow_instructions
        stats.num_eq_guards = dup.num_guards
        if config.optimization1:
            plans = apply_optimization1(plans)
        insert_checks(module, plans, next_guard_id=dup.next_guard_id)
        stats.num_value_checks = len(plans)
        for plan in plans.values():
            stats.checks_by_kind[plan.kind] = stats.checks_by_kind.get(plan.kind, 0) + 1

    elif scheme == "full_dup":
        full = full_duplication(module)
        stats.num_duplicated = full.num_shadow_instructions
        stats.num_eq_guards = full.num_guards

    if verify:
        verify_module(module)
    stats.instructions_after = module.num_instructions()
    return stats
