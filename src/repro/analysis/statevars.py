"""State-variable identification (Section III-B / IV-A of the paper).

A *state variable* is a variable that carries a value across loop iterations:
at the IR level, a phi node in a loop header that has (a) an incoming value
from outside the loop (the init) and (b) an incoming value from a latch block
inside the loop that *transitively depends on the phi itself*.  Loop induction
variables, CRC-style accumulators, and predictive-codec state all match this
pattern.  Corruption of a state variable snowballs across iterations, so these
are the variables protected with hard (duplication) checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..ir.function import Function
from ..ir.instructions import Phi
from .loops import Loop, LoopInfo
from .usedef import depends_on


@dataclass
class StateVariable:
    """A protected loop-carried variable.

    Attributes:
        phi: the loop-header phi node.
        loop: the natural loop whose header holds the phi.
        init_incomings: (value, block) pairs entering from outside the loop.
        update_incomings: (value, block) pairs from latches inside the loop
            whose value depends on the phi (the recurrence updates).
    """

    phi: Phi
    loop: Loop
    init_incomings: List[tuple] = field(default_factory=list)
    update_incomings: List[tuple] = field(default_factory=list)

    @property
    def function(self) -> Optional[Function]:
        return self.phi.function

    def __repr__(self) -> str:
        return (
            f"<StateVariable %{self.phi.name} in loop %{self.loop.header.name} "
            f"({len(self.update_incomings)} updates)>"
        )


def find_state_variables(
    fn: Function,
    loop_info: Optional[LoopInfo] = None,
) -> List[StateVariable]:
    """All state variables of ``fn``, in block order.

    A loop-header phi qualifies when at least one in-loop incoming value
    transitively depends on the phi itself (self-recurrence).  Phis that
    merely merge values of an if-else inside a loop body do not qualify, nor
    do header phis whose in-loop incoming is independent of the phi (e.g. a
    value recomputed from scratch each iteration).
    """
    loop_info = loop_info or LoopInfo.compute(fn)
    out: List[StateVariable] = []
    for loop in loop_info.loops:
        for phi in loop.header.phis():
            sv = classify_header_phi(phi, loop)
            if sv is not None:
                out.append(sv)
    return out


def classify_header_phi(phi: Phi, loop: Loop) -> Optional[StateVariable]:
    """Classify one loop-header phi; returns a StateVariable or None."""
    init, updates = [], []
    for value, block in phi.incomings:
        if loop.contains(block):
            if depends_on(value, phi):
                updates.append((value, block))
        else:
            init.append((value, block))
    if init and updates:
        return StateVariable(phi, loop, init, updates)
    return None


def count_state_variables(fn: Function) -> int:
    """Number of state variables in ``fn`` (used by the Figure 10 statistics)."""
    return len(find_state_variables(fn))
