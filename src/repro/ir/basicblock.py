"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from .instructions import Instruction, Phi

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


class BasicBlock:
    """A basic block within a function.

    Invariants (checked by :mod:`repro.ir.verifier`):

    * exactly one terminator, and it is the last instruction;
    * phi nodes appear before any non-phi instruction;
    * each phi has exactly one incoming per CFG predecessor.
    """

    def __init__(self, name: str, parent: Optional["Function"] = None) -> None:
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- structural edits ----------------------------------------------------

    def append(self, instr: Instruction) -> Instruction:
        """Append ``instr`` (naming it if needed) and claim ownership."""
        if instr.parent is not None:
            raise ValueError(f"instruction {instr!r} already belongs to a block")
        instr.parent = self
        if instr.has_result and not instr.name and self.parent is not None:
            instr.name = self.parent.next_value_name()
        self.instructions.append(instr)
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        """Insert ``instr`` at position ``index``."""
        if instr.parent is not None:
            raise ValueError(f"instruction {instr!r} already belongs to a block")
        instr.parent = self
        if instr.has_result and not instr.name and self.parent is not None:
            instr.name = self.parent.next_value_name()
        self.instructions.insert(index, instr)
        return instr

    def insert_before(self, anchor: Instruction, instr: Instruction) -> Instruction:
        """Insert ``instr`` immediately before ``anchor`` (which must be here)."""
        return self.insert(self.instructions.index(anchor), instr)

    def insert_after(self, anchor: Instruction, instr: Instruction) -> Instruction:
        """Insert ``instr`` immediately after ``anchor`` (which must be here)."""
        return self.insert(self.instructions.index(anchor) + 1, instr)

    def remove(self, instr: Instruction) -> None:
        self.instructions.remove(instr)
        instr.parent = None

    # -- queries -------------------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return list(term.successors) if term is not None else []  # type: ignore[attr-defined]

    @property
    def predecessors(self) -> List["BasicBlock"]:
        """Blocks that branch here (computed; order = function block order)."""
        if self.parent is None:
            return []
        preds = []
        for block in self.parent.blocks:
            if self in block.successors:
                preds.append(block)
        return preds

    def phis(self) -> Iterator[Phi]:
        for instr in self.instructions:
            if not isinstance(instr, Phi):
                break
            yield instr

    def non_phi_instructions(self) -> Iterator[Instruction]:
        for instr in self.instructions:
            if not isinstance(instr, Phi):
                yield instr

    def first_non_phi_index(self) -> int:
        for idx, instr in enumerate(self.instructions):
            if not isinstance(instr, Phi):
                return idx
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock %{self.name} ({len(self.instructions)} instrs)>"
