"""IRBuilder: ergonomic construction of IR, one instruction at a time.

The builder keeps an insertion point (a basic block; instructions are appended
at its end, before the terminator if one exists) and exposes one method per
instruction kind.  The frontend code generator and the protection transforms
both build IR through this class.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    GetElementPtr,
    GuardEq,
    GuardRange,
    GuardValues,
    ICmp,
    Instruction,
    IntrinsicCall,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from .types import F64, I32, FloatType, IntType, IRType
from .values import Constant, Value


class IRBuilder:
    """Appends instructions at a movable insertion point."""

    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block

    def set_block(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self) -> Function:
        if self.block is None or self.block.parent is None:
            raise ValueError("builder has no insertion block")
        return self.block.parent

    def _emit(self, instr: Instruction) -> Instruction:
        if self.block is None:
            raise ValueError("builder has no insertion block")
        term = self.block.terminator
        if term is not None:
            if instr.is_terminator:
                raise ValueError(
                    f"block %{self.block.name} already has a terminator"
                )
            self.block.insert_before(term, instr)
        else:
            self.block.append(instr)
        return instr

    # -- constants ------------------------------------------------------------

    @staticmethod
    def const(value, type_: IRType = I32) -> Constant:
        return Constant(type_, value)

    # -- arithmetic -----------------------------------------------------------

    def binop(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._emit(BinaryOp(opcode, lhs, rhs, name))  # type: ignore[return-value]

    def add(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("add", a, b, name)

    def sub(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("sub", a, b, name)

    def mul(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("mul", a, b, name)

    def sdiv(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("sdiv", a, b, name)

    def srem(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("srem", a, b, name)

    def and_(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("and", a, b, name)

    def or_(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("or", a, b, name)

    def xor(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("xor", a, b, name)

    def shl(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("shl", a, b, name)

    def lshr(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("lshr", a, b, name)

    def ashr(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("ashr", a, b, name)

    def fadd(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("fadd", a, b, name)

    def fsub(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("fsub", a, b, name)

    def fmul(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("fmul", a, b, name)

    def fdiv(self, a: Value, b: Value, name: str = "") -> BinaryOp:
        return self.binop("fdiv", a, b, name)

    # -- comparisons / select ---------------------------------------------------

    def icmp(self, pred: str, a: Value, b: Value, name: str = "") -> ICmp:
        return self._emit(ICmp(pred, a, b, name))  # type: ignore[return-value]

    def fcmp(self, pred: str, a: Value, b: Value, name: str = "") -> FCmp:
        return self._emit(FCmp(pred, a, b, name))  # type: ignore[return-value]

    def select(self, cond: Value, t: Value, f: Value, name: str = "") -> Select:
        return self._emit(Select(cond, t, f, name))  # type: ignore[return-value]

    # -- casts --------------------------------------------------------------------

    def cast(self, opcode: str, value: Value, to_type: IRType, name: str = "") -> Cast:
        return self._emit(Cast(opcode, value, to_type, name))  # type: ignore[return-value]

    def int_cast(self, value: Value, to_type: IntType, signed: bool = True, name: str = "") -> Value:
        """Integer resize with the appropriate trunc/sext/zext (no-op if same)."""
        assert isinstance(value.type, IntType)
        if value.type is to_type:
            return value
        if value.type.bits > to_type.bits:
            return self.cast("trunc", value, to_type, name)
        return self.cast("sext" if signed else "zext", value, to_type, name)

    def sitofp(self, value: Value, to_type: FloatType = F64, name: str = "") -> Cast:
        return self.cast("sitofp", value, to_type, name)

    def fptosi(self, value: Value, to_type: IntType = I32, name: str = "") -> Cast:
        return self.cast("fptosi", value, to_type, name)

    # -- memory ---------------------------------------------------------------------

    def alloca(self, elem_type: IRType, count: int = 1, name: str = "") -> Alloca:
        return self._emit(Alloca(elem_type, count, name))  # type: ignore[return-value]

    def load(self, value_type: IRType, pointer: Value, name: str = "") -> Load:
        return self._emit(Load(value_type, pointer, name))  # type: ignore[return-value]

    def store(self, value: Value, pointer: Value) -> Store:
        return self._emit(Store(value, pointer))  # type: ignore[return-value]

    def gep(self, base: Value, index: Value, elem_type: IRType, name: str = "") -> GetElementPtr:
        return self._emit(GetElementPtr(base, index, elem_type, name))  # type: ignore[return-value]

    # -- control flow -------------------------------------------------------------------

    def br(self, target: BasicBlock) -> Br:
        return self._emit(Br(target))  # type: ignore[return-value]

    def condbr(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> CondBr:
        return self._emit(CondBr(cond, if_true, if_false))  # type: ignore[return-value]

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self._emit(Ret(value))  # type: ignore[return-value]

    def phi(self, type_: IRType, name: str = "") -> Phi:
        """Insert a phi at the *top* of the current block."""
        if self.block is None:
            raise ValueError("builder has no insertion block")
        instr = Phi(type_, name)
        self.block.insert(self.block.first_non_phi_index(), instr)
        return instr

    # -- calls -----------------------------------------------------------------------------

    def call(self, callee: Function, args: Sequence[Value], name: str = "") -> Call:
        return self._emit(Call(callee, args, name))  # type: ignore[return-value]

    def intrinsic(self, intrinsic: str, args: Sequence[Value], name: str = "") -> IntrinsicCall:
        return self._emit(IntrinsicCall(intrinsic, args, name))  # type: ignore[return-value]

    # -- guards ------------------------------------------------------------------------------

    def guard_eq(self, original: Value, shadow: Value, guard_id: int = -1) -> GuardEq:
        return self._emit(GuardEq(original, shadow, guard_id))  # type: ignore[return-value]

    def guard_values(self, value: Value, expected: Sequence[Constant], guard_id: int = -1) -> GuardValues:
        return self._emit(GuardValues(value, expected, guard_id))  # type: ignore[return-value]

    def guard_range(self, value: Value, lo: Constant, hi: Constant, guard_id: int = -1) -> GuardRange:
        return self._emit(GuardRange(value, lo, hi, guard_id))  # type: ignore[return-value]
