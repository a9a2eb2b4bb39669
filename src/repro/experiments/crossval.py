"""Section V "Sensitivity of results to different inputs".

2-fold cross-validation on jpegdec and kmeans (one per field, as in the
paper): swap the train and test inputs — profile on the test input, inject on
the train input — and compare the Dup + val chks outcome fractions.  The
paper finds per-category differences of fractions of a percent and a ~3%
performance-overhead difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .reporting import format_table, pct
from .runner import ExperimentCache, global_cache

CROSSVAL_BENCHMARKS = ("jpegdec", "kmeans")


@dataclass
class CrossValRow:
    benchmark: str
    category: str
    normal: float
    swapped: float

    @property
    def delta(self) -> float:
        return abs(self.normal - self.swapped)


def compute(cache: Optional[ExperimentCache] = None) -> List[CrossValRow]:
    cache = cache or global_cache()
    rows: List[CrossValRow] = []
    benchmarks = [b for b in CROSSVAL_BENCHMARKS if b in cache.settings.workloads]
    for name in benchmarks:
        normal = cache.campaign(name, "dup_valchk", swap_train_test=False)
        swapped = cache.campaign(name, "dup_valchk", swap_train_test=True)
        pairs = [
            ("Masked", normal.masked, swapped.masked),
            ("SWDetect", normal.swdetect, swapped.swdetect),
            ("HWDetect", normal.hwdetect, swapped.hwdetect),
            ("Failure", normal.failure, swapped.failure),
            ("USDC", normal.usdc, swapped.usdc),
        ]
        for category, a, b in pairs:
            rows.append(CrossValRow(name, category, a, b))
    return rows


def mean_deltas(rows: List[CrossValRow]) -> Dict[str, float]:
    out: Dict[str, List[float]] = {}
    for row in rows:
        out.setdefault(row.category, []).append(row.delta)
    return {k: sum(v) / len(v) for k, v in out.items()}


def report(cache: Optional[ExperimentCache] = None) -> str:
    rows = compute(cache)
    table = format_table(
        ["benchmark", "category", "train->test", "test->train (swapped)", "delta"],
        [(r.benchmark, r.category, pct(r.normal), pct(r.swapped), pct(r.delta, 2))
         for r in rows],
        title="2-fold cross-validation (Dup + val chks, swapped profile/run inputs)",
    )
    deltas = mean_deltas(rows)
    summary = "  ".join(f"{k}: {pct(v, 2)}" for k, v in deltas.items())
    return f"{table}\nmean deltas: {summary}"
