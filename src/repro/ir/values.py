"""Value hierarchy for the repro IR.

Everything that can appear as an instruction operand is a :class:`Value`:
constants, function arguments, global variables, and instructions themselves
(an instruction *is* the SSA value it defines).  Values track their uses so
transforms can rewrite the program with :meth:`Value.replace_all_uses_with`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .types import F64, I1, PTR, FloatType, IntType, IRType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from .function import Function
    from .instructions import Instruction


class Value:
    """Base of the SSA value hierarchy.

    Attributes:
        type: the :class:`~repro.ir.types.IRType` of this value.
        name: a (function-unique for instructions) printable name.
        uses: list of ``(instruction, operand_index)`` pairs referencing this
            value.  Maintained automatically by instruction operand setters.
    """

    __slots__ = ("type", "name", "uses")

    def __init__(self, type_: IRType, name: str = "") -> None:
        self.type = type_
        self.name = name
        self.uses: List[Tuple["Instruction", int]] = []

    @property
    def users(self) -> List["Instruction"]:
        """Distinct instructions that use this value (order of first use)."""
        seen = []
        for instr, _ in self.uses:
            if instr not in seen:
                seen.append(instr)
        return seen

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every use of ``self`` to refer to ``new`` instead."""
        if new is self:
            return
        for instr, idx in list(self.uses):
            instr.set_operand(idx, new)

    def short(self) -> str:
        """Compact printable reference (``%name`` / literal / ``@global``)."""
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short()}: {self.type}>"


class Constant(Value):
    """An immediate constant of integer, float, or pointer type."""

    __slots__ = ("value",)

    def __init__(self, type_: IRType, value) -> None:
        super().__init__(type_, "")
        if isinstance(type_, IntType):
            value = type_.wrap(int(value))
        elif isinstance(type_, FloatType):
            value = float(value)
        self.value = value

    def short(self) -> str:
        return f"{self.type} {self.value}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type is self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((id(self.type), self.value))


class UndefValue(Value):
    """Explicitly undefined value (used for unreachable phi incomings)."""

    __slots__ = ()

    def short(self) -> str:
        return f"{self.type} undef"


class Argument(Value):
    """A formal parameter of a :class:`~repro.ir.function.Function`."""

    __slots__ = ("function", "index")

    def __init__(self, type_: IRType, name: str, function: "Function", index: int) -> None:
        super().__init__(type_, name)
        self.function = function
        self.index = index


class GlobalVariable(Value):
    """A module-level array (or scalar, with ``count == 1``).

    Globals are the I/O surface of a workload: the harness binds input data
    into them before a run and reads output data out afterwards.  Their value
    *as an operand* is the base address of their memory segment (pointer type).

    Attributes:
        elem_type: element type of the array.
        count: number of elements.
        initializer: optional list of initial element values.
        is_input / is_output: harness hints marking workload I/O buffers.
    """

    __slots__ = ("elem_type", "count", "initializer", "is_input", "is_output")

    def __init__(
        self,
        name: str,
        elem_type: IRType,
        count: int,
        initializer: Optional[list] = None,
        is_input: bool = False,
        is_output: bool = False,
    ) -> None:
        super().__init__(PTR, name)
        if count <= 0:
            raise ValueError(f"global {name!r} must have positive element count")
        if initializer is not None and len(initializer) > count:
            raise ValueError(f"initializer for {name!r} longer than the array")
        self.elem_type = elem_type
        self.count = count
        self.initializer = initializer
        self.is_input = is_input
        self.is_output = is_output

    @property
    def size_bytes(self) -> int:
        return self.count * self.elem_type.size_bytes  # type: ignore[attr-defined]

    def short(self) -> str:
        return f"@{self.name}"


def const_int(value: int, type_: IntType = None) -> Constant:
    """Convenience constructor for integer constants (defaults to i32)."""
    from .types import I32

    return Constant(type_ or I32, value)


def const_float(value: float, type_: FloatType = F64) -> Constant:
    """Convenience constructor for float constants (defaults to f64)."""
    return Constant(type_, value)


def const_bool(value: bool) -> Constant:
    """Convenience constructor for i1 constants."""
    return Constant(I1, 1 if value else 0)
