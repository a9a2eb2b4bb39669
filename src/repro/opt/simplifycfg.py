"""CFG simplification: merge trivial block chains, fold constant branches.

Optional cleanup (not part of the default frontend pipeline — the evaluated
binaries keep the layout the code generator produced, as a real -O0-with-
protection build would).  Used by tests and available for experiments that
want tighter CFGs:

* a block ending in an unconditional branch to a block with exactly one
  predecessor is merged with it;
* a conditional branch on a constant condition becomes an unconditional
  branch (the dead edge's phi incomings are removed);
* unreachable blocks are deleted.
"""

from __future__ import annotations

from typing import Set

from ..analysis.cfg import predecessors_map, reachable_blocks
from ..ir.function import Function
from ..ir.instructions import Br, CondBr
from ..ir.module import Module
from ..ir.values import Constant


def simplify_cfg_module(module: Module) -> int:
    """Run CFG simplification on every function; returns blocks removed."""
    return sum(simplify_cfg(fn) for fn in module.functions.values())


def simplify_cfg(fn: Function) -> int:
    """Iterate folding + merging + unreachable removal to a fixpoint."""
    removed = 0
    changed = True
    while changed:
        changed = False
        changed |= _fold_constant_branches(fn)
        n = _remove_unreachable(fn)
        removed += n
        changed |= bool(n)
        n = _merge_chains(fn)
        removed += n
        changed |= bool(n)
    return removed


def _fold_constant_branches(fn: Function) -> bool:
    changed = False
    for block in fn.blocks:
        term = block.terminator
        if not isinstance(term, CondBr):
            continue
        cond = term.cond
        if not isinstance(cond, Constant):
            continue
        taken = term.if_true if cond.value & 1 else term.if_false
        dead = term.if_false if cond.value & 1 else term.if_true
        if dead is not taken:
            for phi in dead.phis():
                phi.remove_incoming(block)
        term.drop_all_references()
        block.remove(term)
        block.append(Br(taken))
        changed = True
    return changed


def _remove_unreachable(fn: Function) -> int:
    reachable = reachable_blocks(fn)
    dead = [b for b in fn.blocks if id(b) not in reachable]
    if not dead:
        return 0
    dead_ids: Set[int] = {id(b) for b in dead}
    # strip phi incomings that came from dead blocks
    for block in fn.blocks:
        if id(block) in dead_ids:
            continue
        for phi in list(block.phis()):
            for pred in [p for p in phi.incoming_blocks if id(p) in dead_ids]:
                phi.remove_incoming(pred)
    for block in dead:
        for instr in list(block.instructions):
            instr.drop_all_references()
            block.remove(instr)
        fn.blocks.remove(block)
    return len(dead)


def _merge_chains(fn: Function) -> int:
    """Merge ``A -> br B`` where B has exactly one predecessor (A)."""
    merged = 0
    preds = predecessors_map(fn)
    for block in list(fn.blocks):
        while True:
            term = block.terminator
            if not isinstance(term, Br):
                break
            succ = term.target
            if succ is block or len(preds.get(succ, ())) != 1:
                break
            if succ not in fn.blocks:  # already merged elsewhere
                break
            # replace single-incoming phis in succ by their value
            for phi in list(succ.phis()):
                value = phi.incoming_for(block)
                phi.replace_all_uses_with(value)
                phi.drop_all_references()
                succ.remove(phi)
            term.drop_all_references()
            block.remove(term)
            for instr in list(succ.instructions):
                succ.remove(instr)
                instr.parent = block
                block.instructions.append(instr)
            # successors of succ now flow from `block`: fix their phi labels
            for nxt in block.successors:
                for phi in nxt.phis():
                    for idx, pred in enumerate(phi.incoming_blocks):
                        if pred is succ:
                            phi.incoming_blocks[idx] = block
            fn.blocks.remove(succ)
            preds = predecessors_map(fn)
            merged += 1
    return merged
