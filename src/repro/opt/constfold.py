"""Constant folding over SSA.

Optional cleanup pass: evaluates instructions whose operands are all
constants and replaces their uses with the folded constant.  Iterates to a
fixpoint so chains of constants collapse.  Arithmetic semantics match the
interpreter exactly (two's-complement wrap, C-style division); operations
that would trap at run time (division by zero) are left in place.
"""

from __future__ import annotations

import math
from typing import Optional

from ..ir.function import Function
from ..ir.instructions import BinaryOp, Cast, FCmp, ICmp, Instruction, Select
from ..ir.module import Module
from ..ir.types import I1, IntType
from ..ir.values import Constant
from ..sim.ops import FCMP_EVAL, FLOAT_BINOP_EVAL, ICMP_EVAL, INT_BINOP_EVAL


def fold_constants_module(module: Module) -> int:
    """Fold every function; returns the number of instructions folded."""
    return sum(fold_constants(fn) for fn in module.functions.values())


def fold_constants(fn: Function) -> int:
    folded = 0
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            for instr in list(block.instructions):
                constant = _try_fold(instr)
                if constant is None:
                    continue
                instr.replace_all_uses_with(constant)
                instr.drop_all_references()
                block.remove(instr)
                folded += 1
                changed = True
    return folded


def _try_fold(instr: Instruction) -> Optional[Constant]:
    if not all(isinstance(op, Constant) for op in instr.operands):
        return None

    if isinstance(instr, BinaryOp):
        a = instr.lhs.value  # type: ignore[union-attr]
        b = instr.rhs.value  # type: ignore[union-attr]
        op = instr.opcode
        int_fn = INT_BINOP_EVAL.get(op)
        try:
            if int_fn is not None:
                return Constant(instr.type, int_fn(a, b, instr.type))
            return Constant(instr.type, FLOAT_BINOP_EVAL[op](a, b))
        except ZeroDivisionError:
            return None  # leave the trapping division in place

    if isinstance(instr, ICmp):
        a, b = (op.value for op in instr.operands)  # type: ignore[union-attr]
        return Constant(I1, 1 if ICMP_EVAL[instr.predicate](a, b, instr.operands[0].type) else 0)

    if isinstance(instr, FCmp):
        a, b = (op.value for op in instr.operands)  # type: ignore[union-attr]
        return Constant(I1, 1 if FCMP_EVAL[instr.predicate](a, b) else 0)

    if isinstance(instr, Select):
        cond, tval, fval = (op.value for op in instr.operands)  # type: ignore[union-attr]
        return Constant(instr.type, tval if cond & 1 else fval)

    if isinstance(instr, Cast):
        value = instr.value.value  # type: ignore[union-attr]
        op = instr.opcode
        to = instr.type
        if op in ("trunc", "sext"):
            return Constant(to, to.wrap(value))  # type: ignore[union-attr]
        if op == "zext":
            return Constant(to, to.wrap(value & instr.value.type.mask))  # type: ignore[union-attr]
        if op == "sitofp":
            return Constant(to, float(value))
        if op == "fptosi":
            if math.isnan(value):
                return Constant(to, 0)
            assert isinstance(to, IntType)
            clipped = max(min(value, to.max_signed), to.min_signed)
            return Constant(to, int(clipped))
        if op in ("fpext", "fptrunc"):
            return Constant(to, float(value))
    return None
