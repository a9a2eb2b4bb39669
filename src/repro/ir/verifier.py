"""Structural verifier for the repro IR.

Catches malformed IR early — every transform in the protection pipeline runs
the verifier after mutating a module (cheap insurance that the duplication and
check-insertion passes preserve SSA well-formedness).
"""

from __future__ import annotations

from typing import Set

from .basicblock import BasicBlock
from .function import Function
from .instructions import Instruction, Phi
from .module import Module
from .values import Argument, Constant, GlobalVariable, UndefValue, Value


class VerificationError(Exception):
    """Raised when a module or function violates an IR invariant."""


def verify_module(module: Module) -> None:
    """Verify every function in ``module``; raises :class:`VerificationError`."""
    for fn in module.functions.values():
        verify_function(fn)


def verify_function(fn: Function) -> None:
    """Check structural and SSA invariants of a single function."""
    if not fn.blocks:
        raise VerificationError(f"@{fn.name}: function has no blocks")

    defined: Set[int] = set()
    for arg in fn.args:
        defined.add(id(arg))

    names: Set[str] = set()
    for block in fn.blocks:
        _check_block_shape(fn, block)
        for instr in block.instructions:
            if instr.parent is not block:
                raise VerificationError(
                    f"@{fn.name}/%{block.name}: instruction {instr.format()} has wrong parent"
                )
            if instr.has_result:
                if not instr.name:
                    raise VerificationError(
                        f"@{fn.name}/%{block.name}: unnamed value {instr.format()}"
                    )
                if instr.name in names:
                    raise VerificationError(
                        f"@{fn.name}: duplicate value name %{instr.name}"
                    )
                names.add(instr.name)
            defined.add(id(instr))

    # Every operand must be a constant, global, argument of this function, or
    # an instruction defined somewhere in this function.
    for block in fn.blocks:
        for instr in block.instructions:
            for op in instr.operands:
                _check_operand(fn, block, instr, op, defined)
            if isinstance(instr, Phi):
                _check_phi(fn, block, instr)

    _check_use_lists(fn)
    _check_dominance(fn)


def _check_block_shape(fn: Function, block: BasicBlock) -> None:
    term_positions = [
        i for i, instr in enumerate(block.instructions) if instr.is_terminator
    ]
    if not term_positions:
        raise VerificationError(f"@{fn.name}/%{block.name}: missing terminator")
    if term_positions != [len(block.instructions) - 1]:
        raise VerificationError(
            f"@{fn.name}/%{block.name}: terminator not last or multiple terminators"
        )
    seen_non_phi = False
    for instr in block.instructions:
        if isinstance(instr, Phi):
            if seen_non_phi:
                raise VerificationError(
                    f"@{fn.name}/%{block.name}: phi after non-phi instruction"
                )
        else:
            seen_non_phi = True
    for succ in block.successors:
        if succ not in fn.blocks:
            raise VerificationError(
                f"@{fn.name}/%{block.name}: branch to unknown block %{succ.name}"
            )


def _check_operand(
    fn: Function, block: BasicBlock, instr: Instruction, op: Value, defined: Set[int]
) -> None:
    if isinstance(op, (Constant, UndefValue, GlobalVariable)):
        return
    if isinstance(op, Argument):
        if op.function is not fn:
            raise VerificationError(
                f"@{fn.name}/%{block.name}: {instr.format()} uses argument of another function"
            )
        return
    if isinstance(op, Instruction):
        if id(op) not in defined:
            raise VerificationError(
                f"@{fn.name}/%{block.name}: {instr.format()} uses value "
                f"%{op.name} not defined in this function"
            )
        return
    raise VerificationError(
        f"@{fn.name}/%{block.name}: {instr.format()} has unexpected operand {op!r}"
    )


def _check_phi(fn: Function, block: BasicBlock, phi: Phi) -> None:
    preds = block.predecessors
    phi_blocks = list(phi.incoming_blocks)
    if len(phi_blocks) != len(preds) or set(map(id, phi_blocks)) != set(map(id, preds)):
        pred_names = sorted(p.name for p in preds)
        phi_names = sorted(p.name for p in phi_blocks)
        raise VerificationError(
            f"@{fn.name}/%{block.name}: phi %{phi.name} incomings {phi_names} "
            f"do not match predecessors {pred_names}"
        )


def _check_use_lists(fn: Function) -> None:
    for block in fn.blocks:
        for instr in block.instructions:
            for idx, op in enumerate(instr.operands):
                if (instr, idx) not in op.uses:
                    raise VerificationError(
                        f"@{fn.name}: use list of {op.short()} is missing "
                        f"({instr.format()}, {idx})"
                    )


def _check_dominance(fn: Function) -> None:
    """Each use must be dominated by its definition (phi uses checked at the
    end of the incoming block)."""
    from ..analysis.dominators import DominatorTree

    dt = DominatorTree.compute(fn)
    # Map instruction -> (block, index) for intra-block ordering.
    position = {}
    for block in fn.blocks:
        for idx, instr in enumerate(block.instructions):
            position[id(instr)] = (block, idx)

    for block in fn.blocks:
        if not dt.is_reachable(block):
            continue
        for idx, instr in enumerate(block.instructions):
            for op_idx, op in enumerate(instr.operands):
                if not isinstance(op, Instruction):
                    continue
                def_block, def_idx = position[id(op)]
                if isinstance(instr, Phi):
                    incoming = instr.incoming_blocks[op_idx]
                    if not dt.is_reachable(incoming):
                        continue
                    if not dt.dominates(def_block, incoming):
                        raise VerificationError(
                            f"@{fn.name}: phi %{instr.name} incoming %{op.name} from "
                            f"%{incoming.name} is not dominated by its definition"
                        )
                    continue
                if def_block is block:
                    if def_idx >= idx:
                        raise VerificationError(
                            f"@{fn.name}/%{block.name}: %{op.name} used before defined "
                            f"by {instr.format()}"
                        )
                elif not dt.dominates(def_block, block):
                    raise VerificationError(
                        f"@{fn.name}: use of %{op.name} in %{block.name} not dominated "
                        f"by its definition in %{def_block.name}"
                    )
