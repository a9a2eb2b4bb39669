"""Control-flow signature checking (CFCSS-style, Oh/McCluskey).

The paper's coverage explicitly excludes faults on branch *targets* and
points at signature-based control-flow checking as the complementary, cheap
protection (Section IV-C: "a previously proposed signature-based low-cost
solution can be used in conjunction with our proposed approach").  This
transform implements that companion scheme:

* every basic block gets a compile-time signature ``s(b)``;
* a run-time signature register ``G`` (held in a stack slot so it survives
  arbitrary control flow) is updated at the top of every block with the
  XOR difference ``d(b) = s(base_pred) ^ s(b)``;
* blocks with multiple predecessors use CFCSS's run-time adjusting
  signature ``A``: each predecessor stores ``A = s(pred) ^ s(base_pred)``
  before branching in, and the block folds ``A`` into ``G``;
* a :class:`~repro.ir.instructions.GuardValues` check compares ``G`` against
  ``s(b)`` — a branch that lands on the wrong block leaves a stale signature
  in ``G`` and the check fires.

Critical edges are split first so every predecessor of a multi-predecessor
block can set ``A`` unambiguously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.cfg import predecessors_map, reverse_postorder, split_critical_edges
from ..ir.function import Function
from ..ir.instructions import Alloca, GuardValues, Load, Store
from ..ir.module import Module
from ..ir.types import I32
from ..ir.values import Constant
from ..ir.verifier import verify_module


@dataclass
class CfcssResult:
    """What the signature pass inserted."""

    num_blocks_signed: int = 0
    num_guards: int = 0
    num_instructions_added: int = 0
    next_guard_id: int = 0


def _block_signature(index: int) -> int:
    """Deterministic, well-spread 16-bit signature for block ``index``."""
    # Knuth multiplicative hashing keeps XOR differences distinct in practice.
    return ((index + 1) * 2654435761 >> 13) & 0xFFFF


class CfcssPass:
    """Inserts control-flow signature updates and checks, in place."""

    def __init__(self, next_guard_id: int = 10_000) -> None:
        self.next_guard_id = next_guard_id

    def run(self, module: Module, verify: bool = True) -> CfcssResult:
        result = CfcssResult(next_guard_id=self.next_guard_id)
        for fn in module.functions.values():
            self._run_on_function(fn, result)
        result.next_guard_id = self.next_guard_id
        if verify:
            verify_module(module)
        return result

    def _run_on_function(self, fn: Function, result: CfcssResult) -> None:
        if len(fn.blocks) < 2:
            return  # single-block functions have no branches to protect
        split_critical_edges(fn)

        blocks = reverse_postorder(fn)
        sig: Dict[int, int] = {
            id(b): _block_signature(i) for i, b in enumerate(blocks)
        }
        preds = predecessors_map(fn)

        entry = fn.entry
        before = fn.num_instructions()

        # The signature register G and the adjusting signature A live in
        # stack slots: unlike SSA values they survive a wrong-target jump.
        g_slot = Alloca(I32, 1, name="cfcss.G")
        a_slot = Alloca(I32, 1, name="cfcss.A")
        entry.insert(0, g_slot)
        entry.insert(1, a_slot)
        entry.insert(2, Store(Constant(I32, sig[id(entry)]), g_slot))
        entry.insert(3, Store(Constant(I32, 0), a_slot))

        for block in blocks:
            if block is entry:
                continue
            block_preds = [p for p in preds[block] if id(p) in sig]
            if not block_preds:
                continue
            base = block_preds[0]
            d = sig[id(base)] ^ sig[id(block)]
            fanin = len(block_preds) > 1

            if fanin:
                # every predecessor publishes its adjustment before branching
                for pred in block_preds:
                    adjust = sig[id(pred)] ^ sig[id(base)]
                    term = pred.terminator
                    assert term is not None
                    pred.insert_before(term, Store(Constant(I32, adjust), a_slot))
                    result.num_instructions_added += 1

            insert_at = block.first_non_phi_index()
            seq: List = []
            g_val = Load(I32, g_slot, name=f"cfcss.g.{block.name}")
            seq.append(g_val)
            from ..ir.instructions import BinaryOp

            g_new = BinaryOp("xor", g_val, Constant(I32, d))
            seq.append(g_new)
            if fanin:
                a_val = Load(I32, a_slot, name=f"cfcss.a.{block.name}")
                seq.append(a_val)
                g_new = BinaryOp("xor", g_new, a_val)
                seq.append(g_new)
            guard = GuardValues(
                g_new, [Constant(I32, sig[id(block)])], self.next_guard_id
            )
            self.next_guard_id += 1
            seq.append(guard)
            seq.append(Store(g_new, g_slot))
            for offset, instr in enumerate(seq):
                block.insert(insert_at + offset, instr)
            result.num_guards += 1
            result.num_blocks_signed += 1

        result.num_instructions_added += fn.num_instructions() - before


def protect_control_flow(module: Module, next_guard_id: int = 10_000) -> CfcssResult:
    """Convenience wrapper: run the CFCSS pass over ``module``.

    Composable with the data-protection schemes — apply
    :func:`~repro.transforms.pipeline.apply_scheme` first, then this, to get
    the paper's "in conjunction" configuration.
    """
    return CfcssPass(next_guard_id).run(module)
