"""Natural-loop detection.

A back edge is a CFG edge ``tail → head`` where ``head`` dominates ``tail``.
The natural loop of that edge is ``head`` plus every block that can reach
``tail`` without passing through ``head``.  Loop headers are where the paper
finds state variables: phi nodes merging an init value from outside the loop
with an update from inside it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from .cfg import predecessors_map
from .dominators import DominatorTree


class Loop:
    """One natural loop: header, body blocks, and nesting links."""

    def __init__(self, header: BasicBlock) -> None:
        self.header = header
        self.blocks: Set[BasicBlock] = {header}
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []
        #: blocks inside the loop that branch back to the header
        self.latches: List[BasicBlock] = []

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    @property
    def depth(self) -> int:
        d, node = 1, self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop that are branched to from inside it."""
        exits: List[BasicBlock] = []
        for block in self.blocks:
            for succ in block.successors:
                if succ not in self.blocks and succ not in exits:
                    exits.append(succ)
        return exits

    def preheader_candidates(self) -> List[BasicBlock]:
        """Predecessors of the header from outside the loop."""
        return [p for p in self.header.predecessors if p not in self.blocks]

    def __repr__(self) -> str:
        return f"<Loop header=%{self.header.name} blocks={len(self.blocks)} depth={self.depth}>"


class LoopInfo:
    """All natural loops of a function, with their nesting."""

    def __init__(self, fn: Function, loops: List[Loop]) -> None:
        self.function = fn
        self.loops = loops

    @classmethod
    def compute(cls, fn: Function, dt: Optional[DominatorTree] = None) -> "LoopInfo":
        dt = dt or DominatorTree.compute(fn)
        preds = predecessors_map(fn)

        # Collect back edges, merging loops that share a header.
        loops_by_header: Dict[int, Loop] = {}
        for block in dt.rpo:
            for succ in block.successors:
                if dt.is_reachable(succ) and dt.dominates(succ, block):
                    loop = loops_by_header.get(id(succ))
                    if loop is None:
                        loop = Loop(succ)
                        loops_by_header[id(succ)] = loop
                    loop.latches.append(block)
                    _grow_loop(loop, block, preds)

        loops = list(loops_by_header.values())
        _link_nesting(loops)
        return cls(fn, loops)

    # -- queries ------------------------------------------------------------------

    def innermost_loop_containing(self, block: BasicBlock) -> Optional[Loop]:
        best: Optional[Loop] = None
        for loop in self.loops:
            if loop.contains(block) and (best is None or loop.depth > best.depth):
                best = loop
        return best

    def headers(self) -> List[BasicBlock]:
        return [l.header for l in self.loops]


def _grow_loop(
    loop: Loop, latch: BasicBlock, preds: Dict[BasicBlock, List[BasicBlock]]
) -> None:
    """Add all blocks reaching ``latch`` without passing through the header."""
    stack = [latch]
    while stack:
        block = stack.pop()
        if block in loop.blocks:
            continue
        loop.blocks.add(block)
        stack.extend(preds.get(block, ()))


def _link_nesting(loops: List[Loop]) -> None:
    """Set parent/children: a loop's parent is the smallest strictly-larger
    loop containing its header."""
    for inner in loops:
        best: Optional[Loop] = None
        for outer in loops:
            if outer is inner:
                continue
            if inner.header in outer.blocks and inner.blocks <= outer.blocks:
                if best is None or len(outer.blocks) < len(best.blocks):
                    best = outer
        inner.parent = best
        if best is not None:
            best.children.append(inner)
