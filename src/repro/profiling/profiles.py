"""Per-instruction value profiles and the module-level profile store.

An :class:`InstructionProfile` combines the streaming histogram (Algorithm 1)
with a small exact counter of the most frequent values — the paper's
"fixed set of most frequently produced values" — which is what enables the
single-value and two-value check forms of Figure 6 (a point in a merged
histogram bin loses its exact identity; the counter preserves it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.instructions import Instruction
from .histogram import OnlineHistogram
from .rangefinder import FrequentRange, compact_range


class InstructionProfile:
    """Everything profiled about one static value-producing instruction."""

    __slots__ = ("instruction", "histogram", "top_values", "_top_capacity", "count")

    def __init__(
        self,
        instruction: Instruction,
        num_bins: int = 5,
        top_capacity: int = 8,
    ) -> None:
        self.instruction = instruction
        self.histogram = OnlineHistogram(num_bins)
        #: exact counts for the first `top_capacity` distinct values observed
        self.top_values: Dict[float, int] = {}
        self._top_capacity = top_capacity
        self.count = 0

    def observe(self, value) -> None:
        v = float(value)
        self.count += 1
        self.histogram.add(v)
        tv = self.top_values
        if v in tv:
            tv[v] += 1
        elif len(tv) < self._top_capacity:
            tv[v] = 1

    # -- analysis ----------------------------------------------------------------

    def frequent_values(self, max_values: int = 2) -> List[Tuple[float, int]]:
        """Most frequent exact values, descending by count."""
        return sorted(self.top_values.items(), key=lambda kv: -kv[1])[:max_values]

    def value_coverage(self, values: List[float]) -> float:
        """Fraction of all samples equal to one of ``values`` (exact counter)."""
        if not self.count:
            return 0.0
        covered = sum(self.top_values.get(v, 0) for v in values)
        return covered / self.count

    def compact_range(self, range_threshold: float) -> Optional[FrequentRange]:
        return compact_range(self.histogram, range_threshold)

    @property
    def span(self) -> float:
        """Full observed value span (max - min)."""
        if not self.histogram.bins:
            return 0.0
        return self.histogram.max - self.histogram.min  # type: ignore[operator]

    def __repr__(self) -> str:
        return (
            f"<InstructionProfile %{self.instruction.name} n={self.count} "
            f"bins={len(self.histogram)}>"
        )


class ProfileStore:
    """Profiles for every value-producing instruction of a module, keyed by
    instruction identity (profiling and transformation run on the same module
    instance, exactly as an LLVM analysis pass feeds a transform pass)."""

    def __init__(self, num_bins: int = 5, top_capacity: int = 8) -> None:
        self.num_bins = num_bins
        self.top_capacity = top_capacity
        self._profiles: Dict[int, InstructionProfile] = {}

    def observe(self, instruction: Instruction, value) -> None:
        key = id(instruction)
        profile = self._profiles.get(key)
        if profile is None:
            profile = InstructionProfile(instruction, self.num_bins, self.top_capacity)
            self._profiles[key] = profile
        profile.observe(value)

    def get(self, instruction: Instruction) -> Optional[InstructionProfile]:
        return self._profiles.get(id(instruction))

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self):
        return iter(self._profiles.values())

    def summary(self) -> Dict[str, dict]:
        """Loggable per-instruction digest (for reports and debugging)."""
        out = {}
        for p in self._profiles.values():
            out[p.instruction.name] = {
                "count": p.count,
                "bins": p.histogram.as_tuples(),
                "top": p.frequent_values(4),
            }
        return out

    # -- persistence -----------------------------------------------------------
    #
    # The paper's value profiling is a one-time offline step; persisting the
    # store lets a profile collected once be reused across sessions.  Entries
    # are keyed by (function name, value name) — stable because module builds
    # are deterministic — so a store saved from one build of a workload loads
    # against a fresh build of the same workload.

    def to_dict(self) -> Dict[str, dict]:
        """JSON-serialisable form, keyed ``"function:value_name"``."""
        out: Dict[str, dict] = {}
        for p in self._profiles.values():
            instr = p.instruction
            fn = instr.function
            if fn is None or not instr.name:
                continue
            out[f"{fn.name}:{instr.name}"] = {
                "count": p.count,
                "bins": [[b.lb, b.rb, b.count] for b in p.histogram.bins],
                "total": p.histogram.total,
                "top": [[v, c] for v, c in p.top_values.items()],
            }
        return {
            "version": 1,
            "num_bins": self.num_bins,
            "top_capacity": self.top_capacity,
            "profiles": out,
        }

    def save(self, path) -> None:
        """Write the store as JSON to ``path``."""
        import json

        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, data: Dict, module) -> "ProfileStore":
        """Rebind a serialised store onto a (fresh, identical) module."""
        from .histogram import Bin

        store = cls(
            num_bins=data.get("num_bins", 5),
            top_capacity=data.get("top_capacity", 8),
        )
        index: Dict[str, Instruction] = {}
        for fn in module.functions.values():
            for instr in fn.instructions():
                if instr.has_result and instr.name:
                    index[f"{fn.name}:{instr.name}"] = instr
        for key, entry in data.get("profiles", {}).items():
            instr = index.get(key)
            if instr is None:
                continue  # module changed shape since the profile was taken
            profile = InstructionProfile(instr, store.num_bins, store.top_capacity)
            profile.count = entry["count"]
            profile.histogram.bins = [
                Bin(lb, rb, c) for lb, rb, c in entry["bins"]
            ]
            profile.histogram.total = entry["total"]
            profile.top_values = {float(v): int(c) for v, c in entry["top"]}
            store._profiles[id(instr)] = profile
        return store

    @classmethod
    def load(cls, path, module) -> "ProfileStore":
        """Read a store saved by :meth:`save`, rebound onto ``module``."""
        import json

        with open(path) as fh:
            return cls.from_dict(json.load(fh), module)
