"""Fault-injection CLI: run one campaign and optionally export JSON.

Usage::

    python -m repro.faultinjection jpegdec dup_valchk --trials 100
    python -m repro.faultinjection kmeans original --json kmeans.json
    python -m repro.faultinjection g721dec dup --seed 7 --swap-inputs
    python -m repro.faultinjection g721dec dup_valchk --trials 1000 --jobs 4
    python -m repro.faultinjection tiff2bw dup --fault-model burst
    python -m repro.faultinjection kmeans dup --fault-model mem_transient
    python -m repro.faultinjection tiff2bw full_dup --fault-model chaos

Every ``REPRO_*`` knob of :class:`CampaignConfig` also has a flag
(:func:`repro.settings.add_flags`); a flag beats the environment.
"""

from __future__ import annotations

import argparse
import sys

from .. import settings
from ..obs.metrics import enable_global
from ..transforms.pipeline import SCHEMES
from ..workloads.registry import BENCHMARK_NAMES, get_workload
from .campaign import CampaignConfig, run_campaign
from .stats import margin_of_error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faultinjection",
        description="Run one statistical fault-injection campaign.",
    )
    parser.add_argument("workload", choices=BENCHMARK_NAMES)
    parser.add_argument("scheme", choices=list(SCHEMES))
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--swap-inputs", action="store_true",
                        help="profile on the test input, inject on the train "
                             "input (the cross-validation configuration)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live progress line on stderr")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full campaign record as JSON")
    settings.add_flags(parser, CampaignConfig)
    args = parser.parse_args(argv)

    try:
        config = settings.resolve(settings.from_args(
            CampaignConfig, args, trials=args.trials, seed=args.seed,
            swap_train_test=args.swap_inputs,
        ))
    except ValueError as err:
        parser.error(str(err))
    if config.obs_log:
        enable_global()
    result = run_campaign(
        get_workload(args.workload), args.scheme, config,
        progress=None if args.quiet else sys.stderr,
    )

    error = margin_of_error(result.num_trials)
    print(f"{args.workload} [{args.scheme}] — {result.num_trials} trials "
          f"(±{100 * error:.1f}% at 95% confidence)")
    for label, value in (
        ("Masked", result.masked),
        ("SWDetect", result.swdetect),
        ("HWDetect", result.hwdetect),
        ("Failure", result.failure),
        ("USDC", result.usdc),
    ):
        print(f"  {label:9s} {value:7.1%}")
    print(f"  {'coverage':9s} {result.coverage:7.1%}")
    print(f"  SDC view: {result.sdc:.1%} total "
          f"({result.asdc:.1%} acceptable, {result.usdc:.1%} unacceptable)")
    print(f"  false positives in golden run: {result.golden_guard_failures} "
          f"over {result.golden_guard_evaluations} check evaluations")

    if args.json:
        result.save(args.json)
        print(f"  wrote {args.json}")
    if config.obs_log:
        print(f"  trial event log appended to {config.obs_log} "
              f"(python -m repro.obs report {config.obs_log})")
    if config.trace:
        print(f"  span trace exported to {config.trace} "
              f"(python -m repro.obs report --trace {config.trace}, "
              f"or load at ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
