"""mem2reg: promote stack slots to SSA registers.

The standard SSA-construction pass (Cytron et al.): for every promotable
alloca, place phi nodes at the iterated dominance frontier of its defining
blocks, then rename uses along a dominator-tree walk.  After this pass,
loop-carried locals appear as phi nodes in loop headers — the exact form the
paper's state-variable analysis (Section IV-A) looks for.

Promotable allocas are single-element slots used only as the direct pointer
of loads and stores (never indexed, never stored *as a value*, never passed
to a call).  Local arrays therefore stay in memory, as they should.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..analysis.cfg import predecessors_map
from ..analysis.dominators import DominatorTree
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Alloca, Instruction, Load, Phi, Store
from ..ir.module import Module
from ..ir.values import UndefValue, Value


def promote_module(module: Module) -> int:
    """Run mem2reg on every function; returns total allocas promoted."""
    return sum(promote_allocas(fn) for fn in module.functions.values())


def promote_allocas(fn: Function) -> int:
    """Promote all promotable allocas of one function to SSA values."""
    allocas = _find_promotable(fn)
    if not allocas:
        return 0

    dt = DominatorTree.compute(fn)
    frontier = dt.dominance_frontier()
    preds = predecessors_map(fn)
    # Dominance frontiers are sets; iterate them in reverse postorder so phi
    # placement (and therefore value naming) is deterministic across runs.
    rpo_index = {id(b): i for i, b in enumerate(dt.rpo)}

    # -- phi placement at iterated dominance frontiers -----------------------------
    # phi_sites[block][alloca id] -> phi node
    phi_sites: Dict[int, Dict[int, Phi]] = {}
    phi_alloca: Dict[int, Alloca] = {}  # phi id -> alloca it materialises
    for alloca in allocas:
        def_blocks = {
            id(user.parent): user.parent
            for user in alloca.users
            if isinstance(user, Store)
        }
        worklist = list(def_blocks.values())
        placed: Set[int] = set()
        while worklist:
            block = worklist.pop()
            if not dt.is_reachable(block):
                continue
            df_blocks = sorted(
                frontier.get(block, ()), key=lambda b: rpo_index[id(b)]
            )
            for df_block in df_blocks:
                if id(df_block) in placed:
                    continue
                placed.add(id(df_block))
                phi = Phi(alloca.elem_type, name=f"{alloca.name.replace('.addr', '')}.{fn._block_counter}")
                fn._block_counter += 1
                df_block.insert(0, phi)
                phi_sites.setdefault(id(df_block), {})[id(alloca)] = phi
                phi_alloca[id(phi)] = alloca
                if id(df_block) not in def_blocks:
                    def_blocks[id(df_block)] = df_block
                    worklist.append(df_block)

    # -- renaming along the dominator tree ---------------------------------------------
    stacks: Dict[int, List[Value]] = {id(a): [] for a in allocas}
    undefs: Dict[int, UndefValue] = {
        id(a): UndefValue(a.elem_type) for a in allocas
    }
    alloca_ids = set(stacks.keys())
    to_erase: List[Instruction] = []

    def current(alloca_id: int) -> Value:
        stack = stacks[alloca_id]
        return stack[-1] if stack else undefs[alloca_id]

    def rename(block: BasicBlock) -> None:
        pushed: List[int] = []
        for instr in list(block.instructions):
            if isinstance(instr, Phi) and id(instr) in phi_alloca:
                aid = id(phi_alloca[id(instr)])
                stacks[aid].append(instr)
                pushed.append(aid)
            elif isinstance(instr, Load) and id(instr.pointer) in alloca_ids:
                instr.replace_all_uses_with(current(id(instr.pointer)))
                to_erase.append(instr)
            elif isinstance(instr, Store) and id(instr.pointer) in alloca_ids:
                aid = id(instr.pointer)
                stacks[aid].append(instr.value)
                pushed.append(aid)
                to_erase.append(instr)

        for succ in block.successors:
            sites = phi_sites.get(id(succ))
            if not sites:
                continue
            for aid_key, phi in sites.items():
                phi.add_incoming(current(aid_key), block)

        for child in dt.children.get(block, ()):
            rename(child)

        for aid in reversed(pushed):
            stacks[aid].pop()

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * len(fn.blocks) + 100))
    try:
        rename(fn.entry)
    finally:
        sys.setrecursionlimit(old_limit)

    # -- cleanup ---------------------------------------------------------------------------
    for instr in to_erase:
        instr.drop_all_references()
        if instr.parent is not None:
            instr.parent.remove(instr)
    for alloca in allocas:
        if alloca.uses:  # pragma: no cover - promotability guarantees none
            raise RuntimeError(f"alloca %{alloca.name} still has uses after promotion")
        alloca.erase()

    _prune_dead_phis(fn, set(phi_alloca.keys()))
    return len(allocas)


def _find_promotable(fn: Function) -> List[Alloca]:
    out: List[Alloca] = []
    for block in fn.blocks:
        for instr in block.instructions:
            if not isinstance(instr, Alloca) or instr.count != 1:
                continue
            ok = True
            for user, idx in instr.uses:
                if isinstance(user, Load) and user.pointer is instr:
                    continue
                if isinstance(user, Store) and idx == 1:  # pointer operand only
                    continue
                ok = False
                break
            if ok:
                out.append(instr)
    return out


def _prune_dead_phis(fn: Function, inserted_phi_ids: Set[int]) -> None:
    """Remove inserted phis that are unused (or only feed other dead phis).

    Unpruned phi placement creates phis for variables that are dead at the
    join point; left in place they would distort the static instruction
    counts *and* could masquerade as state variables.  Liveness propagates
    backwards: a phi is live when some non-phi instruction uses it, or a live
    phi does — so mutually-referencing dead phi cycles (loop-carried dead
    variables) are removed too.
    """
    # Seed: inserted phis used by any non-phi instruction (or by a phi that
    # was not inserted by this pass, which we conservatively treat as live).
    live: Set[int] = set()
    worklist: List[Phi] = []
    by_id: Dict[int, Phi] = {}
    for block in fn.blocks:
        for phi in block.phis():
            if id(phi) in inserted_phi_ids:
                by_id[id(phi)] = phi

    def mark(phi: Phi) -> None:
        if id(phi) not in live:
            live.add(id(phi))
            worklist.append(phi)

    for phi in by_id.values():
        for user in phi.users:
            if not isinstance(user, Phi) or id(user) not in inserted_phi_ids:
                mark(phi)
                break

    while worklist:
        phi = worklist.pop()
        for op in phi.operands:
            if isinstance(op, Phi) and id(op) in inserted_phi_ids:
                mark(op)

    for pid, phi in by_id.items():
        if pid in live:
            continue
        phi.replace_all_uses_with(UndefValue(phi.type))
        phi.drop_all_references()
        if phi.parent is not None:
            phi.parent.remove(phi)
