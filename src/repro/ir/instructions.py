"""Instruction set of the repro IR.

The instruction set mirrors the LLVM subset the paper's passes operate on:
integer/float arithmetic, comparisons, select, casts, memory (alloca / load /
store / gep), control flow (br / condbr / ret), phi nodes, calls, and
intrinsics.  On top of that it adds the three *guard* instructions the
transforms insert:

* :class:`GuardEq` — the hard check comparing an original value against its
  duplicated shadow (state-variable protection, Fig. 4/7 of the paper).
* :class:`GuardValues` — soft check against one or two frequent values
  (Fig. 6a/6b).
* :class:`GuardRange` — soft check against a profiled compact range (Fig. 6c).

Guards are void instructions; their runtime semantics live in the simulator
(:mod:`repro.sim.interpreter`), which raises a software-detection event when a
guard fires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .types import I1, PTR, VOID, IRType
from .values import Constant, Value

if TYPE_CHECKING:  # pragma: no cover
    from .basicblock import BasicBlock
    from .function import Function


# ---------------------------------------------------------------------------
# Opcode tables
# ---------------------------------------------------------------------------

INT_BINOPS = frozenset(
    {"add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
     "and", "or", "xor", "shl", "lshr", "ashr"}
)
FLOAT_BINOPS = frozenset({"fadd", "fsub", "fmul", "fdiv", "frem"})
BINOPS = INT_BINOPS | FLOAT_BINOPS

ICMP_PREDICATES = frozenset({"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"})
FCMP_PREDICATES = frozenset({"oeq", "one", "olt", "ole", "ogt", "oge"})

CAST_OPS = frozenset({"trunc", "zext", "sext", "fptosi", "sitofp", "fpext", "fptrunc", "ptrtoint", "inttoptr"})

#: Pure intrinsics: name -> (result type factory, arity). Result type ``None``
#: means "same as first argument".
INTRINSICS = {
    "sqrt": (None, 1),
    "exp": (None, 1),
    "log": (None, 1),
    "sin": (None, 1),
    "cos": (None, 1),
    "fabs": (None, 1),
    "abs": (None, 1),
    "min": (None, 2),
    "max": (None, 2),
    "floor": (None, 1),
    "pow": (None, 2),
}


class Instruction(Value):
    """Base class for all instructions.

    An instruction is itself the SSA :class:`Value` it defines (void for
    instructions with no result).  Operand slots are managed through
    :meth:`set_operand` so that def-use information stays consistent.

    Attributes:
        parent: owning basic block (set on insertion).
        is_shadow: True when this instruction was created by a duplication
            transform (it belongs to a duplicated producer chain).
        shadow_of: for shadow instructions, the original instruction cloned.
    """

    opcode: str = "?"

    def __init__(self, type_: IRType, operands: Sequence[Value], name: str = "") -> None:
        super().__init__(type_, name)
        self.parent: Optional["BasicBlock"] = None
        self.is_shadow: bool = False
        self.shadow_of: Optional["Instruction"] = None
        self._operands: List[Value] = []
        for op in operands:
            self._append_operand(op)

    # -- operand management -------------------------------------------------

    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def _append_operand(self, value: Value) -> None:
        if value is None:
            raise ValueError(f"{self.opcode}: operand may not be None")
        idx = len(self._operands)
        self._operands.append(value)
        value.uses.append((self, idx))

    def set_operand(self, idx: int, value: Value) -> None:
        """Replace operand ``idx``, keeping use lists consistent."""
        old = self._operands[idx]
        try:
            old.uses.remove((self, idx))
        except ValueError:  # pragma: no cover - defensive; lists stay in sync
            pass
        self._operands[idx] = value
        value.uses.append((self, idx))

    def drop_all_references(self) -> None:
        """Remove this instruction from the use lists of its operands."""
        for idx, op in enumerate(self._operands):
            try:
                op.uses.remove((self, idx))
            except ValueError:  # pragma: no cover
                pass
        self._operands = []

    # -- queries -------------------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Br, CondBr, Ret))

    @property
    def is_guard(self) -> bool:
        return isinstance(self, (GuardEq, GuardValues, GuardRange))

    @property
    def has_result(self) -> bool:
        return not self.type.is_void

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    def erase(self) -> None:
        """Unlink from the parent block and drop operand references."""
        if self.uses:
            raise RuntimeError(
                f"cannot erase {self.short()}: it still has {len(self.uses)} uses"
            )
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_references()

    # -- printing ------------------------------------------------------------

    def _operands_str(self) -> str:
        return ", ".join(op.short() for op in self._operands)

    def format(self) -> str:
        if self.has_result:
            return f"%{self.name} = {self.opcode} {self.type} {self._operands_str()}"
        return f"{self.opcode} {self._operands_str()}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.format()}>"


# ---------------------------------------------------------------------------
# Arithmetic and logic
# ---------------------------------------------------------------------------


class BinaryOp(Instruction):
    """Two-operand arithmetic/logic (``add``, ``fmul``, ``xor``, ...)."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in BINOPS:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        if opcode in INT_BINOPS and not lhs.type.is_integer:
            raise TypeError(f"{opcode} requires integer operands, got {lhs.type}")
        if opcode in FLOAT_BINOPS and not lhs.type.is_float:
            raise TypeError(f"{opcode} requires float operands, got {lhs.type}")
        if lhs.type is not rhs.type:
            raise TypeError(f"{opcode} operand types differ: {lhs.type} vs {rhs.type}")
        self.opcode = opcode
        super().__init__(lhs.type, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self._operands[0]

    @property
    def rhs(self) -> Value:
        return self._operands[1]


class ICmp(Instruction):
    """Integer/pointer comparison producing an i1."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        if lhs.type is not rhs.type:
            raise TypeError(f"icmp operand types differ: {lhs.type} vs {rhs.type}")
        self.predicate = predicate
        super().__init__(I1, [lhs, rhs], name)

    def format(self) -> str:
        return f"%{self.name} = icmp {self.predicate} {self._operands_str()}"


class FCmp(Instruction):
    """Float comparison producing an i1 (ordered predicates only)."""

    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate {predicate!r}")
        if lhs.type is not rhs.type:
            raise TypeError(f"fcmp operand types differ: {lhs.type} vs {rhs.type}")
        self.predicate = predicate
        super().__init__(I1, [lhs, rhs], name)

    def format(self) -> str:
        return f"%{self.name} = fcmp {self.predicate} {self._operands_str()}"


class Select(Instruction):
    """``select cond, a, b`` — branch-free conditional value."""

    opcode = "select"

    def __init__(self, cond: Value, tval: Value, fval: Value, name: str = "") -> None:
        if not cond.type.is_bool:
            raise TypeError("select condition must be i1")
        if tval.type is not fval.type:
            raise TypeError("select arm types differ")
        super().__init__(tval.type, [cond, tval, fval], name)

    @property
    def cond(self) -> Value:
        return self._operands[0]


class Cast(Instruction):
    """Type conversion (``trunc``/``zext``/``sext``/``fptosi``/``sitofp``/...)."""

    def __init__(self, opcode: str, value: Value, to_type: IRType, name: str = "") -> None:
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        self.opcode = opcode
        super().__init__(to_type, [value], name)

    @property
    def value(self) -> Value:
        return self._operands[0]

    def format(self) -> str:
        return f"%{self.name} = {self.opcode} {self._operands[0].short()} to {self.type}"


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


class Alloca(Instruction):
    """Stack allocation of ``count`` elements of ``elem_type``; yields a pointer."""

    opcode = "alloca"

    def __init__(self, elem_type: IRType, count: int = 1, name: str = "") -> None:
        if count <= 0:
            raise ValueError("alloca count must be positive")
        self.elem_type = elem_type
        self.count = count
        super().__init__(PTR, [], name)

    @property
    def size_bytes(self) -> int:
        return self.count * self.elem_type.size_bytes  # type: ignore[attr-defined]

    def format(self) -> str:
        return f"%{self.name} = alloca {self.elem_type} x {self.count}"


class Load(Instruction):
    """``load <type>, ptr`` — bounds-checked read from simulator memory."""

    opcode = "load"

    def __init__(self, value_type: IRType, pointer: Value, name: str = "") -> None:
        if not pointer.type.is_pointer:
            raise TypeError("load pointer operand must have pointer type")
        super().__init__(value_type, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self._operands[0]

    def format(self) -> str:
        return f"%{self.name} = load {self.type}, {self._operands[0].short()}"


class Store(Instruction):
    """``store value, ptr`` — bounds-checked write to simulator memory."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value) -> None:
        if not pointer.type.is_pointer:
            raise TypeError("store pointer operand must have pointer type")
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self._operands[0]

    @property
    def pointer(self) -> Value:
        return self._operands[1]


class GetElementPtr(Instruction):
    """``gep base, index`` — computes ``base + index * elem_size`` (bytes).

    A simplified single-index GEP; multi-dimensional accesses are expressed by
    explicit index arithmetic in the frontend, matching how the paper's
    kernels index flattened arrays.
    """

    opcode = "gep"

    def __init__(self, base: Value, index: Value, elem_type: IRType, name: str = "") -> None:
        if not base.type.is_pointer:
            raise TypeError("gep base must have pointer type")
        if not index.type.is_integer:
            raise TypeError("gep index must be an integer")
        self.elem_type = elem_type
        super().__init__(PTR, [base, index], name)

    @property
    def base(self) -> Value:
        return self._operands[0]

    @property
    def index(self) -> Value:
        return self._operands[1]

    @property
    def elem_size(self) -> int:
        return self.elem_type.size_bytes  # type: ignore[attr-defined]

    def format(self) -> str:
        return (
            f"%{self.name} = gep {self._operands[0].short()}, "
            f"{self._operands[1].short()} x {self.elem_type}"
        )


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


class Br(Instruction):
    """Unconditional branch."""

    opcode = "br"

    def __init__(self, target: "BasicBlock") -> None:
        self.target = target
        super().__init__(VOID, [])

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.target is old:
            self.target = new

    def format(self) -> str:
        return f"br label %{self.target.name}"


class CondBr(Instruction):
    """Conditional branch on an i1."""

    opcode = "condbr"

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock") -> None:
        if not cond.type.is_bool:
            raise TypeError("condbr condition must be i1")
        self.if_true = if_true
        self.if_false = if_false
        super().__init__(VOID, [cond])

    @property
    def cond(self) -> Value:
        return self._operands[0]

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.if_true, self.if_false]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.if_true is old:
            self.if_true = new
        if self.if_false is old:
            self.if_false = new

    def format(self) -> str:
        return (
            f"condbr {self._operands[0].short()}, "
            f"label %{self.if_true.name}, label %{self.if_false.name}"
        )


class Ret(Instruction):
    """Function return, with an optional value."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self._operands[0] if self._operands else None

    @property
    def successors(self) -> List["BasicBlock"]:
        return []

    def format(self) -> str:
        return f"ret {self._operands[0].short()}" if self._operands else "ret void"


class Phi(Instruction):
    """SSA phi node; merges one value per predecessor block.

    State variables (the paper's central concept) are phi nodes in loop
    headers whose in-loop incoming value transitively depends on the phi
    itself — see :mod:`repro.analysis.statevars`.
    """

    opcode = "phi"

    def __init__(self, type_: IRType, name: str = "") -> None:
        self.incoming_blocks: List["BasicBlock"] = []
        super().__init__(type_, [], name)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type is not self.type:
            raise TypeError(
                f"phi incoming type {value.type} does not match phi type {self.type}"
            )
        self._append_operand(value)
        self.incoming_blocks.append(block)

    @property
    def incomings(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self._operands, self.incoming_blocks))

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incomings:
            if pred is block:
                return value
        raise KeyError(f"phi {self.short()} has no incoming for block %{block.name}")

    def set_incoming_value(self, block: "BasicBlock", value: Value) -> None:
        for idx, pred in enumerate(self.incoming_blocks):
            if pred is block:
                self.set_operand(idx, value)
                return
        raise KeyError(f"phi {self.short()} has no incoming for block %{block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for idx, pred in enumerate(self.incoming_blocks):
            if pred is block:
                op = self._operands[idx]
                op.uses.remove((self, idx))
                del self._operands[idx]
                del self.incoming_blocks[idx]
                # Re-index remaining uses.
                for later in range(idx, len(self._operands)):
                    val = self._operands[later]
                    pos = val.uses.index((self, later + 1))
                    val.uses[pos] = (self, later)
                return
        raise KeyError(f"phi {self.short()} has no incoming for block %{block.name}")

    def format(self) -> str:
        pairs = ", ".join(
            f"[{v.short()}, %{b.name}]" for v, b in self.incomings
        )
        return f"%{self.name} = phi {self.type} {pairs}"


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


class Call(Instruction):
    """Direct call of another function in the same module."""

    opcode = "call"

    def __init__(self, callee: "Function", args: Sequence[Value], name: str = "") -> None:
        self.callee = callee
        super().__init__(callee.return_type, list(args), name)

    def format(self) -> str:
        head = f"%{self.name} = " if self.has_result else ""
        return f"{head}call @{self.callee.name}({self._operands_str()})"


class IntrinsicCall(Instruction):
    """Call of a pure math intrinsic (``sqrt``, ``exp``, ``min``, ...).

    Intrinsics are side-effect free, so duplication transforms may clone them
    into shadow chains just like arithmetic.
    """

    opcode = "intrinsic"

    def __init__(self, intrinsic: str, args: Sequence[Value], name: str = "") -> None:
        if intrinsic not in INTRINSICS:
            raise ValueError(f"unknown intrinsic {intrinsic!r}")
        _, arity = INTRINSICS[intrinsic]
        if len(args) != arity:
            raise ValueError(f"intrinsic {intrinsic} expects {arity} args, got {len(args)}")
        self.intrinsic = intrinsic
        super().__init__(args[0].type, list(args), name)

    def format(self) -> str:
        return f"%{self.name} = {self.intrinsic}({self._operands_str()})"


# ---------------------------------------------------------------------------
# Guards (inserted by protection transforms)
# ---------------------------------------------------------------------------


class GuardBase(Instruction):
    """Common behaviour for detection checks.

    Each guard carries a stable ``guard_id`` (assigned by the transform) used
    for the once-per-check recovery policy and for false-positive accounting.
    """

    def __init__(self, operands: Sequence[Value], guard_id: int = -1) -> None:
        self.guard_id = guard_id
        super().__init__(VOID, operands)


class GuardEq(GuardBase):
    """Hard check: fires when the original and shadow values differ.

    This is the comparison inserted at the end of a duplicated producer chain
    (paper Fig. 4 line 10 / Fig. 7b).
    """

    opcode = "guard_eq"

    def __init__(self, original: Value, shadow: Value, guard_id: int = -1) -> None:
        if original.type is not shadow.type:
            raise TypeError("guard_eq operand types differ")
        super().__init__([original, shadow], guard_id)

    @property
    def original(self) -> Value:
        return self._operands[0]

    @property
    def shadow(self) -> Value:
        return self._operands[1]

    def format(self) -> str:
        return f"guard_eq {self._operands_str()}  ; id={self.guard_id}"


class GuardValues(GuardBase):
    """Soft check: fires when the value is not one of 1–2 frequent constants
    (paper Fig. 6a / 6b)."""

    opcode = "guard_values"

    def __init__(self, value: Value, expected: Sequence[Constant], guard_id: int = -1) -> None:
        if not 1 <= len(expected) <= 2:
            raise ValueError("guard_values expects one or two frequent values")
        for c in expected:
            if c.type is not value.type:
                raise TypeError("guard_values constant type mismatch")
        super().__init__([value, *expected], guard_id)

    @property
    def value(self) -> Value:
        return self._operands[0]

    @property
    def expected(self) -> Tuple[Constant, ...]:
        return tuple(self._operands[1:])  # type: ignore[return-value]

    def format(self) -> str:
        return f"guard_values {self._operands_str()}  ; id={self.guard_id}"


class GuardRange(GuardBase):
    """Soft check: fires when the value leaves its profiled compact range
    (paper Fig. 6c)."""

    opcode = "guard_range"

    def __init__(self, value: Value, lo: Constant, hi: Constant, guard_id: int = -1) -> None:
        if lo.type is not value.type or hi.type is not value.type:
            raise TypeError("guard_range bound type mismatch")
        super().__init__([value, lo, hi], guard_id)

    @property
    def value(self) -> Value:
        return self._operands[0]

    @property
    def lo(self) -> Constant:
        return self._operands[1]  # type: ignore[return-value]

    @property
    def hi(self) -> Constant:
        return self._operands[2]  # type: ignore[return-value]

    def format(self) -> str:
        return f"guard_range {self._operands_str()}  ; id={self.guard_id}"
