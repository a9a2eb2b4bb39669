"""Simulator events and traps.

Traps carry the dynamic cycle at which they occurred; the fault-injection
campaign classifies a trap as a hardware detection (HWDetect) when it fires
within the symptom window after injection, and as a Failure otherwise —
exactly the paper's Section IV-C policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


class SimTrap(Exception):
    """Base class for all run-terminating simulator events."""

    def __init__(self, message: str, cycle: int) -> None:
        super().__init__(f"{message} (cycle {cycle})")
        self.message = message
        self.cycle = cycle


class MemoryTrap(SimTrap):
    """Out-of-bounds, unmapped, or otherwise invalid memory access.

    The hardware-symptom analogue of a page fault / alignment fault.
    """

    def __init__(self, kind: str, address: int, cycle: int) -> None:
        # A non-integer address (a float cast into a pointer) has no hex form.
        shown = f"{address:#x}" if isinstance(address, int) else repr(address)
        super().__init__(f"memory trap [{kind}] at address {shown}", cycle)
        self.kind = kind
        self.address = address


class ArithmeticTrap(SimTrap):
    """Integer division/remainder by zero — a hardware-visible symptom."""

    def __init__(self, operation: str, cycle: int) -> None:
        super().__init__(f"arithmetic trap in {operation}", cycle)
        self.operation = operation


class TimeoutTrap(SimTrap):
    """Dynamic instruction budget exhausted (models an infinite loop)."""

    def __init__(self, limit: int, cycle: int) -> None:
        super().__init__(f"exceeded instruction budget of {limit}", cycle)
        self.limit = limit


class GuardTrap(SimTrap):
    """A software check (guard instruction) fired in detection mode."""

    def __init__(self, guard_id: int, guard_kind: str, cycle: int) -> None:
        super().__init__(f"guard {guard_id} ({guard_kind}) fired", cycle)
        self.guard_id = guard_id
        self.guard_kind = guard_kind


class StackOverflowTrap(SimTrap):
    """Stack segment exhausted (deep recursion or huge allocas)."""

    def __init__(self, cycle: int) -> None:
        super().__init__("stack overflow", cycle)


class HarnessContainedTrap(SimTrap):
    """A non-trap Python exception provoked by injected corruption.

    The simulator is itself software: a corrupted value can drive evaluator
    code down paths the real hardware would survive but Python does not —
    ``RecursionError`` from a corrupted call target, ``struct.error`` or
    ``OverflowError`` from a value outside a packable range, and so on.  The
    containment boundary converts any such post-injection exception into this
    trap so every trial still terminates with a classified outcome (counted
    like a hardware symptom: HWDetect inside the symptom window, Failure
    beyond it) instead of escaping as a worker crash.

    Pre-injection exceptions are *not* contained — before the fault lands the
    run is golden, so an exception there is a harness bug that must surface.
    """

    def __init__(self, exc_name: str, detail: str, cycle: int) -> None:
        super().__init__(
            f"contained harness exception {exc_name}: {detail}", cycle
        )
        self.exc_name = exc_name
        self.detail = detail

    @property
    def trap_kind(self) -> str:
        return f"contained:{self.exc_name}"


@dataclass
class GuardStats:
    """Per-run accounting of guard evaluations and failures.

    Used in counting mode (fault-free runs) to measure the false-positive
    rate the paper reports in Section V.
    """

    evaluations: int = 0
    failures_by_guard: Dict[int, int] = field(default_factory=dict)

    @property
    def total_failures(self) -> int:
        return sum(self.failures_by_guard.values())

    def record_failure(self, guard_id: int) -> None:
        self.failures_by_guard[guard_id] = self.failures_by_guard.get(guard_id, 0) + 1


@dataclass
class RunResult:
    """Outcome of one interpreter run that completed (did not trap).

    Attributes:
        return_value: value returned from the entry function.
        instructions: dynamic instruction count (= cycles in the atomic model).
        guard_stats: guard evaluation/failure counters (counting mode only).
        injection: description of the fault injected, if any.
        cycles: estimated out-of-order cycles when a timing model was attached
            (None otherwise).
    """

    return_value: Optional[object]
    instructions: int
    guard_stats: GuardStats
    injection: Optional[object] = None
    cycles: Optional[float] = None
