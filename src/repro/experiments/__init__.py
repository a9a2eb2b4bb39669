"""Experiment drivers: one module per table/figure of the paper's evaluation.

Run from the command line::

    python -m repro.experiments table1
    python -m repro.experiments figure11
    python -m repro.experiments all          # every table and figure

Trial counts scale with the ``REPRO_TRIALS`` environment variable
(default 60; the paper used 1000 per benchmark).
"""

from . import (
    crossval,
    recovery_analysis,
    false_positives,
    figure2,
    figure10,
    figure11,
    figure12,
    figure13,
    summary,
    tables,
)
from .runner import (
    ExperimentCache,
    ExperimentSettings,
    global_cache,
    reset_global_cache,
)

__all__ = [
    "crossval", "recovery_analysis", "false_positives", "figure2", "figure10", "figure11",
    "figure12", "figure13", "summary", "tables",
    "ExperimentCache", "ExperimentSettings",
    "global_cache", "reset_global_cache",
]
