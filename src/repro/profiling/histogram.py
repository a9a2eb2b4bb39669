"""On-line histogram of values produced by an instruction (paper Algorithm 1).

The profiler cannot afford to store every value an instruction produces, so it
maintains a fixed-size histogram of ``B`` bins (B=5 in the paper's
experiments).  Inserting a value that falls in an existing bin bumps that
bin's frequency; otherwise a new point bin ``[v, v] x 1`` is added and the two
closest adjacent bins are merged to restore the bin budget — a variant of the
Ben-Haim/Tom-Tov streaming histogram, adapted (as the paper does) to keep
*interval* bins with exact bounds rather than centroid bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class Bin:
    """One histogram bin: closed interval [lb, rb] holding ``count`` samples."""

    lb: float
    rb: float
    count: int

    @property
    def is_point(self) -> bool:
        return self.lb == self.rb

    @property
    def width(self) -> float:
        return self.rb - self.lb

    def __iter__(self):
        # Allows tuple-unpacking in tests: lb, rb, count = bin
        return iter((self.lb, self.rb, self.count))


class OnlineHistogram:
    """Streaming histogram with at most ``num_bins`` interval bins.

    Bins are kept sorted and non-overlapping.  ``add`` is O(B); with B=5 the
    profiling hook costs a handful of comparisons per dynamic instruction.
    """

    def __init__(self, num_bins: int = 5) -> None:
        if num_bins < 2:
            raise ValueError("need at least two bins")
        self.num_bins = num_bins
        self.bins: List[Bin] = []
        self.total = 0

    def add(self, value: float) -> None:
        """Insert one sample (Algorithm 1)."""
        self.total += 1
        bins = self.bins
        # Find the first bin whose lb is > value, then check the one before it.
        lo, hi = 0, len(bins)
        while lo < hi:
            mid = (lo + hi) // 2
            if bins[mid].lb <= value:
                lo = mid + 1
            else:
                hi = mid
        idx = lo - 1
        if idx >= 0 and bins[idx].lb <= value <= bins[idx].rb:
            bins[idx].count += 1
            return

        # New point bin, inserted in sorted position.
        bins.insert(lo, Bin(value, value, 1))
        if len(bins) > self.num_bins:
            self._merge_closest()

    def _merge_closest(self) -> None:
        """Merge the adjacent pair with the smallest gap (Algorithm 1, steps 6-8)."""
        bins = self.bins
        best_i, best_gap = 0, None
        for i in range(len(bins) - 1):
            gap = bins[i + 1].lb - bins[i].rb
            if best_gap is None or gap < best_gap:
                best_i, best_gap = i, gap
        a, b = bins[best_i], bins[best_i + 1]
        bins[best_i] = Bin(a.lb, b.rb, a.count + b.count)
        del bins[best_i + 1]

    # -- queries --------------------------------------------------------------------

    @property
    def min(self) -> Optional[float]:
        return self.bins[0].lb if self.bins else None

    @property
    def max(self) -> Optional[float]:
        return self.bins[-1].rb if self.bins else None

    def max_bin(self) -> Optional[Bin]:
        """The highest-frequency bin (ties break to the leftmost)."""
        if not self.bins:
            return None
        return max(self.bins, key=lambda b: b.count)

    def as_tuples(self) -> List[Tuple[float, float, int]]:
        return [(b.lb, b.rb, b.count) for b in self.bins]

    def __len__(self) -> int:
        return len(self.bins)

    def __repr__(self) -> str:
        inner = ", ".join(f"[{b.lb},{b.rb}]x{b.count}" for b in self.bins)
        return f"<OnlineHistogram {inner} total={self.total}>"
