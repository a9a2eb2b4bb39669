"""Backward liveness analysis over SSA values.

The fault model injects bit flips into *live* registers (values defined and
not yet past their last use) — see :mod:`repro.sim.regfile`.  This module
computes per-block live-in/live-out sets, once per function (the interpreter
caches them on it), and the fault-injection runs read them at every
injection: the live-biased register pick (``Interpreter._slot_is_live``,
live-in of the frame's block) and dead-flip triage
(:func:`repro.sim.snapshot.value_dead_after`, live-out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction, Phi
from ..ir.values import Argument, Value
from .cfg import predecessors_map, reverse_postorder


@dataclass
class LivenessInfo:
    """Per-block live-in / live-out sets of SSA values (ids keyed by object)."""

    live_in: Dict[BasicBlock, FrozenSet[Value]]
    live_out: Dict[BasicBlock, FrozenSet[Value]]

    def max_pressure(self) -> int:
        """Upper bound on simultaneously-live values at any block boundary."""
        if not self.live_out:
            return 0
        return max(
            max((len(s) for s in self.live_in.values()), default=0),
            max((len(s) for s in self.live_out.values()), default=0),
        )


def compute_liveness(fn: Function) -> LivenessInfo:
    """Iterative backward dataflow; phi operands are live-out of the incoming
    block (standard SSA treatment)."""
    blocks = reverse_postorder(fn)
    preds = predecessors_map(fn)

    # use[b]: values used in b before (re)definition; def[b]: values defined in b.
    use_sets: Dict[BasicBlock, Set[Value]] = {}
    def_sets: Dict[BasicBlock, Set[Value]] = {}
    # phi_uses[(pred, block)] handled separately below.
    phi_uses: Dict[BasicBlock, Dict[BasicBlock, Set[Value]]] = {}

    for block in blocks:
        uses: Set[Value] = set()
        defs: Set[Value] = set()
        phi_uses[block] = {}
        for instr in block.instructions:
            if isinstance(instr, Phi):
                for value, pred in instr.incomings:
                    if isinstance(value, (Instruction, Argument)):
                        phi_uses[block].setdefault(pred, set()).add(value)
                defs.add(instr)
                continue
            for op in instr.operands:
                if isinstance(op, (Instruction, Argument)) and op not in defs:
                    uses.add(op)
            if instr.has_result:
                defs.add(instr)
        use_sets[block] = uses
        def_sets[block] = defs

    live_in: Dict[BasicBlock, Set[Value]] = {b: set() for b in blocks}
    live_out: Dict[BasicBlock, Set[Value]] = {b: set() for b in blocks}

    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            out: Set[Value] = set()
            for succ in block.successors:
                out |= live_in.get(succ, set())
                out |= phi_uses.get(succ, {}).get(block, set())
            new_in = use_sets[block] | (out - def_sets[block])
            if out != live_out[block] or new_in != live_in[block]:
                live_out[block] = out
                live_in[block] = new_in
                changed = True

    return LivenessInfo(
        live_in={b: frozenset(s) for b, s in live_in.items()},
        live_out={b: frozenset(s) for b, s in live_out.items()},
    )
