"""Full-duplication baseline (SWIFT-style, paper Section V "full duplication").

Duplicates *every* duplicable computation in a single thread of execution —
the "maximum amount of duplication possible without duplicating loads/stores"
the paper compares against (57% overhead, 1.4% USDC).  Synchronisation points
(where original and shadow must agree) are the program's side effects:

* before every store: the stored value and the address are checked;
* before every conditional branch: the condition is checked;
* before every return with a value: the returned value is checked;
* before every call: the arguments are checked (calls are not duplicated).

Loads are not duplicated — both chains consume the loaded value — so faults
on load data escape detection until a later check, and faults that only live
in memory escape entirely; this is why full duplication still has residual
USDCs in the paper despite its cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.cfg import reverse_postorder
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    Call,
    CondBr,
    GuardEq,
    Instruction,
    Phi,
    Ret,
    Store,
)
from ..ir.module import Module
from ..ir.values import Value
from ..analysis.usedef import DUPLICABLE_CLASSES
from .duplication import clone_instruction


@dataclass
class FullDuplicationResult:
    num_shadow_instructions: int = 0
    num_guards: int = 0
    next_guard_id: int = 0


class FullDuplicationPass:
    """Applies whole-function duplication to a module in place."""

    def __init__(self, next_guard_id: int = 0) -> None:
        self.next_guard_id = next_guard_id

    def run(self, module: Module) -> FullDuplicationResult:
        result = FullDuplicationResult()
        for fn in module.functions.values():
            self._run_on_function(fn, result)
        result.next_guard_id = self.next_guard_id
        return result

    def _run_on_function(self, fn: Function, result: FullDuplicationResult) -> None:
        shadow_map: Dict[int, Value] = {}
        original_phis: List[Phi] = []

        # Pass 1: clone every duplicable instruction (RPO so operand shadows
        # exist before their users' clones), shadow phis created empty.
        for block in reverse_postorder(fn):
            for instr in list(block.instructions):
                if instr.is_shadow:
                    continue
                if isinstance(instr, Phi):
                    shadow = Phi(instr.type)
                    shadow.is_shadow = True
                    shadow.shadow_of = instr
                    block.insert(block.first_non_phi_index(), shadow)
                    shadow_map[id(instr)] = shadow
                    original_phis.append(instr)
                    result.num_shadow_instructions += 1
                elif isinstance(instr, DUPLICABLE_CLASSES):
                    clone = clone_instruction(instr, shadow_map)
                    block.insert_after(instr, clone)
                    shadow_map[id(instr)] = clone
                    result.num_shadow_instructions += 1

        # Pass 2: wire shadow-phi incomings (now that all shadows exist).
        for phi in original_phis:
            shadow = shadow_map[id(phi)]
            for value, pred in phi.incomings:
                shadow.add_incoming(shadow_map.get(id(value), value), pred)  # type: ignore[attr-defined]

        # Pass 3: insert guards at synchronisation points.
        for block in list(fn.blocks):
            for instr in list(block.instructions):
                if instr.is_shadow:
                    continue
                if isinstance(instr, Store):
                    self._guard_before(block, instr, instr.value, shadow_map, result)
                    self._guard_before(block, instr, instr.pointer, shadow_map, result)
                elif isinstance(instr, CondBr):
                    self._guard_before(block, instr, instr.cond, shadow_map, result)
                elif isinstance(instr, Ret) and instr.value is not None:
                    self._guard_before(block, instr, instr.value, shadow_map, result)
                elif isinstance(instr, Call):
                    for op in instr.operands:
                        self._guard_before(block, instr, op, shadow_map, result)

    def _guard_before(
        self,
        block: BasicBlock,
        anchor: Instruction,
        value: Value,
        shadow_map: Dict[int, Value],
        result: FullDuplicationResult,
    ) -> None:
        shadow = shadow_map.get(id(value))
        if shadow is None:
            return
        guard = GuardEq(value, shadow, self.next_guard_id)
        self.next_guard_id += 1
        block.insert_before(anchor, guard)
        result.num_guards += 1


def full_duplication(module: Module, next_guard_id: int = 0) -> FullDuplicationResult:
    """Convenience wrapper: run the full-duplication baseline over ``module``."""
    return FullDuplicationPass(next_guard_id).run(module)
