"""Expected-value check planning and insertion (paper Section III-C, Fig. 6).

From the value profiles, each value-producing instruction is classified as
amenable to one of three check forms:

* **single value** — one constant covers almost all samples (Fig. 6a);
* **two values** — two constants together do (Fig. 6b);
* **range** — Algorithm 2's compact range covers almost all samples and is
  narrow relative to the type's representable space (Fig. 6c).

Optimization 1 then drops checks on amenable instructions whose value flows
into another amenable (and checked) instruction downstream — only the deepest
check of a producer chain is kept (Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir.instructions import Instruction, Load, Phi
from ..ir.module import Module
from ..ir.types import FloatType, IntType
from ..ir.values import Constant
from ..profiling.profiles import InstructionProfile, ProfileStore
from .checkconfig import ProtectionConfig


@dataclass
class CheckPlan:
    """A planned expected-value check on one instruction."""

    instruction: Instruction
    kind: str  # 'single' | 'double' | 'range'
    values: List[float] = field(default_factory=list)  # single/double forms
    lo: float = 0.0
    hi: float = 0.0
    coverage: float = 0.0
    #: set by the duplication pass (Opt 2): this check terminated a shadow
    #: chain and must survive Optimization 1 filtering
    forced: bool = False

    def __repr__(self) -> str:
        if self.kind == "range":
            detail = f"[{self.lo}, {self.hi}]"
        else:
            detail = str(self.values)
        return f"<CheckPlan %{self.instruction.name} {self.kind} {detail} cov={self.coverage:.3f}>"


def plan_check(
    instr: Instruction, profile: InstructionProfile, config: ProtectionConfig
) -> Optional[CheckPlan]:
    """Decide whether (and how) ``instr`` is amenable to a value check."""
    if profile.count < config.min_profile_samples:
        return None
    if isinstance(instr, Load) and not config.check_loads:
        # Checks target *computed* values (Fig. 6 shows value-generating
        # instructions); loads already terminate duplication chains and their
        # address faults surface as symptoms.
        return None
    if isinstance(instr, Phi):
        # Phis are register copies resolved at rename; their incoming values
        # are the value-generating instructions and get checked themselves.
        # (State-carrying phis are protected by duplication instead.)
        return None
    if not config.check_address_values and _only_feeds_addresses(instr):
        # A value consumed only by address arithmetic is covered by the
        # memory-symptom path (out-of-bounds accesses trap); checking it
        # buys little and the paper leans on symptoms for address faults.
        return None
    type_ = instr.type
    if isinstance(type_, IntType):
        if type_.bits <= 1:
            return None
        range_limit = config.int_range_limit
    elif isinstance(type_, FloatType):
        range_limit = config.float_range_limit
    else:
        return None

    # Fig. 6a/6b — frequent-value checks; these must be true invariants
    # (every profiled sample matched, enough samples observed), otherwise an
    # input-dependent constant would fire spuriously on the test input.
    if profile.count >= config.min_value_check_samples:
        frequent = profile.frequent_values(2)
        if frequent:
            top1 = [frequent[0][0]]
            if profile.value_coverage(top1) >= config.exact_value_coverage:
                return CheckPlan(instr, "single", values=top1,
                                 coverage=profile.value_coverage(top1))
            if len(frequent) == 2:
                top2 = [frequent[0][0], frequent[1][0]]
                if profile.value_coverage(top2) >= config.exact_value_coverage:
                    return CheckPlan(instr, "double", values=top2,
                                     coverage=profile.value_coverage(top2))

    # Fig. 6c — compact range (Algorithm 2).
    span = profile.span
    r_thr = max(span * config.range_threshold_factor, 1.0)
    fr = profile.compact_range(r_thr)
    if fr is None:
        return None
    if fr.coverage < config.coverage_threshold:
        return None
    pad = max(
        fr.width * config.range_pad_factor,
        config.range_pad_min,
        config.magnitude_slack * max(abs(fr.lo), abs(fr.hi)),
    )
    lo, hi = fr.lo - pad, fr.hi + pad
    if hi - lo > range_limit:
        return None
    if isinstance(type_, IntType):
        lo = max(math.floor(lo), type_.min_signed)
        hi = min(math.ceil(hi), type_.max_signed)
    return CheckPlan(instr, "range", lo=lo, hi=hi, coverage=fr.coverage)


def _only_feeds_addresses(instr: Instruction, max_nodes: int = 64) -> bool:
    """True when every transitive (non-phi) use of ``instr`` ends in address
    arithmetic (GEPs) — i.e. the value never becomes data."""
    from ..ir.instructions import GetElementPtr

    seen: Set[int] = set()
    stack: List[Instruction] = [instr]
    found_use = False
    while stack and len(seen) < max_nodes:
        node = stack.pop()
        for user in node.users:
            uid = id(user)
            if uid in seen:
                continue
            seen.add(uid)
            found_use = True
            if isinstance(user, GetElementPtr):
                continue  # address sink
            if isinstance(user, Phi):
                return False  # conservatively treat phi-merged values as data
            if user.has_result:
                stack.append(user)
            else:
                return False  # stored / compared / returned as data
    return found_use


def compute_check_plans(
    module: Module, profiles: ProfileStore, config: ProtectionConfig
) -> Dict[int, CheckPlan]:
    """Plans for every amenable instruction in the module (pre-Opt-1)."""
    plans: Dict[int, CheckPlan] = {}
    for fn in module.functions.values():
        for instr in fn.instructions():
            if instr.is_shadow or not instr.has_result:
                continue
            profile = profiles.get(instr)
            if profile is None:
                continue
            plan = plan_check(instr, profile, config)
            if plan is not None:
                plans[id(instr)] = plan
    return plans


def apply_optimization1(plans: Dict[int, CheckPlan]) -> Dict[int, CheckPlan]:
    """Keep only the deepest amenable instruction of each producer chain.

    An amenable instruction whose value reaches another amenable instruction
    through non-phi use-def edges is dropped (unless forced by Opt 2): the
    downstream check subsumes it.  Phi edges are excluded so loop-carried
    cycles cannot eliminate each other.
    """
    kept: Dict[int, CheckPlan] = {}
    amenable_ids = set(plans.keys())
    for key, plan in plans.items():
        if plan.forced:
            kept[key] = plan
            continue
        if _reaches_amenable(plan.instruction, amenable_ids):
            continue
        kept[key] = plan
    return kept


def _reaches_amenable(instr: Instruction, amenable_ids: Set[int]) -> bool:
    """True when ``instr`` transitively feeds another amenable instruction
    (forward walk over non-phi users)."""
    seen: Set[int] = set()
    stack: List[Instruction] = [instr]
    while stack:
        node = stack.pop()
        for user in node.users:
            uid = id(user)
            if uid in seen or isinstance(user, Phi):
                continue
            seen.add(uid)
            if uid in amenable_ids:
                return True
            stack.append(user)
    return False


def insert_checks(
    module: Module,
    plans: Dict[int, CheckPlan],
    next_guard_id: int = 0,
) -> int:
    """Materialise the planned checks as guard instructions.

    Each check is inserted immediately after the instruction it protects.
    Returns the next unused guard id.
    """
    guard_id = next_guard_id
    for plan in plans.values():
        instr = plan.instruction
        block = instr.parent
        if block is None:
            raise ValueError(f"planned check on detached instruction %{instr.name}")
        guard = _build_guard(plan, guard_id)
        guard_id += 1
        if isinstance(instr, Phi):
            # Guards may not sit between phis; place after the phi prefix.
            block.insert(block.first_non_phi_index(), guard)
        else:
            block.insert_after(instr, guard)
    return guard_id


def _build_guard(plan: CheckPlan, guard_id: int):
    from ..ir.instructions import GuardRange, GuardValues

    instr = plan.instruction
    type_ = instr.type
    if plan.kind in ("single", "double"):
        consts = [Constant(type_, v) for v in plan.values]
        return GuardValues(instr, consts, guard_id)
    if plan.kind == "range":
        return GuardRange(
            instr, Constant(type_, plan.lo), Constant(type_, plan.hi), guard_id
        )
    raise ValueError(f"unknown check kind {plan.kind!r}")
