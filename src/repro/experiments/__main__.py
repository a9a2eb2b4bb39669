"""CLI entry point: ``python -m repro.experiments <experiment> [...]``."""

from __future__ import annotations

import argparse
import sys
import time

from .. import settings
from ..obs.metrics import enable_global
from ..workloads.registry import BENCHMARK_NAMES
from . import crossval, false_positives, figure2, figure10, figure11, figure12
from . import recovery_analysis
from . import figure13, summary, tables
from .runner import ExperimentSettings, reset_global_cache

EXPERIMENTS = {
    "table1": lambda cache: tables.table1_report(),
    "table2": lambda cache: tables.table2_report(),
    "figure2": lambda cache: figure2.report(cache),
    "figure10": lambda cache: figure10.report(cache),
    "figure11": lambda cache: figure11.report(cache),
    "figure12": lambda cache: figure12.report(cache),
    "figure13": lambda cache: figure13.report(cache),
    "false_positives": lambda cache: false_positives.report(cache),
    "crossval": lambda cache: crossval.report(cache),
    "recovery": lambda cache: recovery_analysis.report(cache),
    "summary": lambda cache: summary.report(cache),
}

#: order used by 'all'
_ALL_ORDER = [
    "table1", "table2", "figure2", "figure10", "figure11", "figure12",
    "figure13", "false_positives", "crossval", "recovery", "summary",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*EXPERIMENTS, "all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--workloads", default=None, metavar="A,B,...",
        help="comma-separated benchmark subset (default: all 13)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the live per-campaign progress lines on stderr",
    )
    settings.add_flags(parser, ExperimentSettings)
    args = parser.parse_args(argv)

    names = _ALL_ORDER if "all" in args.experiments else args.experiments
    workloads = tuple(BENCHMARK_NAMES)
    if args.workloads:
        workloads = tuple(w.strip() for w in args.workloads.split(","))
        unknown = set(workloads) - set(BENCHMARK_NAMES)
        if unknown:
            parser.error(f"unknown workloads: {sorted(unknown)}")
    try:
        experiment = settings.resolve(settings.from_args(
            ExperimentSettings, args, workloads=workloads,
            progress=not args.quiet,
        ))
        # Reject an unknown fault model before the first report runs.
        experiment.campaign_config()
    except ValueError as err:
        parser.error(str(err))
    cache = reset_global_cache(experiment)
    if cache.settings.obs_log:
        enable_global()
    print(f"[trials per campaign: {cache.settings.trials}; "
          f"workloads: {len(cache.settings.workloads)}]\n")
    for name in names:
        start = time.time()
        print(EXPERIMENTS[name](cache))
        print(f"[{name} done in {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
