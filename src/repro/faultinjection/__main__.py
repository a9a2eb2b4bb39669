"""Fault-injection CLI: run one campaign and optionally export JSON.

Usage::

    python -m repro.faultinjection jpegdec dup_valchk --trials 100
    python -m repro.faultinjection kmeans original --json kmeans.json
    python -m repro.faultinjection g721dec dup --seed 7 --swap-inputs
    python -m repro.faultinjection g721dec dup_valchk --trials 1000 --jobs 4
    python -m repro.faultinjection tiff2bw dup --fault-model burst
    python -m repro.faultinjection kmeans dup --fault-model mem_transient
    python -m repro.faultinjection tiff2bw full_dup --chaos --trials 500
"""

from __future__ import annotations

import argparse
import sys

from .. import settings
from ..obs.metrics import enable_global
from ..transforms.pipeline import SCHEMES
from ..sim.faults import CHAOS_FAULT_MODEL, CONCRETE_FAULT_MODELS
from ..workloads.registry import BENCHMARK_NAMES, get_workload
from .campaign import CampaignConfig, run_campaign
from .progress import ProgressPrinter
from .resilience import ResiliencePolicy
from .stats import margin_of_error


def add_resilience_arguments(parser: argparse.ArgumentParser,
                             checkpoint_flag: bool = True) -> None:
    """Attach the shared resilience knobs (also used by repro.experiments).

    ``repro.experiments`` passes ``checkpoint_flag=False``: a sweep runs many
    campaigns, so it takes a ``--checkpoint-dir`` of per-campaign files
    instead of one ``--checkpoint`` path.
    """
    group = parser.add_argument_group("resilience")
    if checkpoint_flag:
        group.add_argument("--checkpoint", metavar="PATH", default=None,
                           help="periodically persist completed trials so an "
                                "interrupted campaign resumes from here "
                                "(default: REPRO_CHECKPOINT or off)")
    group.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="flush the checkpoint every N completed trials "
                            "(default: REPRO_CHECKPOINT_EVERY or 25)")
    group.add_argument("--max-retries", type=int, default=None, metavar="N",
                       help="worker-pool rebuild attempts before falling "
                            "back to serial execution "
                            "(default: REPRO_MAX_RETRIES or 2)")
    group.add_argument("--on-worker-failure", default=None,
                       choices=("retry", "serial", "fail"),
                       help="policy when a worker process dies: rebuild the "
                            "pool with backoff, fall back to in-process "
                            "serial execution immediately, or re-raise "
                            "(default: REPRO_RESILIENCE or retry)")
    group.add_argument("--trial-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-trial wall-clock watchdog; a hung trial is "
                            "requeued once, then quarantined "
                            "(default: REPRO_TRIAL_DEADLINE or off)")


def resilience_from_args(args: argparse.Namespace) -> ResiliencePolicy:
    """The policy the resilience flags set; absent flags stay ``None`` so
    :func:`repro.settings.resolve` fills them from the environment.  Naming
    a worker-failure policy also turns recovery on."""
    return ResiliencePolicy(
        enabled=True if args.on_worker_failure is not None else None,
        on_worker_failure=args.on_worker_failure,
        max_retries=args.max_retries,
        trial_deadline_seconds=args.trial_deadline,
        checkpoint_every=args.checkpoint_every,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faultinjection",
        description="Run one statistical fault-injection campaign.",
    )
    parser.add_argument("workload", choices=BENCHMARK_NAMES)
    parser.add_argument("scheme", choices=list(SCHEMES))
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for trial execution; 0 means "
                             "one per CPU (default: REPRO_JOBS or 1; results "
                             "are bit-identical for any value)")
    parser.add_argument("--snapshot-every", type=int, default=None,
                        metavar="N",
                        help="golden-run snapshot cadence in cycles for "
                             "shared-prefix trial execution: 0 disables, "
                             "-1 picks automatically from the golden length "
                             "(default: REPRO_SNAPSHOT_EVERY or auto; "
                             "results are bit-identical for any value)")
    parser.add_argument("--batch", type=int, default=None, metavar="N",
                        help="run trials in batched lane-parallel sweeps of "
                             "N lanes over the golden run, peeling diverging "
                             "lanes to the scalar fastpath; 0/1 disables "
                             "(default: REPRO_BATCH or off; requires triage; "
                             "results are bit-identical for any value)")
    parser.add_argument("--fault-model", default=None,
                        choices=list(CONCRETE_FAULT_MODELS) + [CHAOS_FAULT_MODEL],
                        help="fault model to inject (default: "
                             "REPRO_FAULT_MODEL or single_bit, the paper's "
                             "model; mem_*/cache_line/stack_frame target "
                             "the memory hierarchy via golden-run occupancy "
                             "maps; 'chaos' mixes all models per trial)")
    parser.add_argument("--chaos", action="store_true",
                        help="shorthand for --fault-model chaos")
    parser.add_argument("--swap-inputs", action="store_true",
                        help="profile on the test input, inject on the train "
                             "input (the cross-validation configuration)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live progress line on stderr")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full campaign record as JSON")
    parser.add_argument("--obs-log", metavar="PATH", default=None,
                        help="append a structured JSONL trial event log "
                             "(default: REPRO_OBS or off; inspect with "
                             "'python -m repro.obs report PATH')")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="export hierarchical wall-clock spans as Chrome "
                             "trace-event JSON — load at ui.perfetto.dev or "
                             "summarize with 'python -m repro.obs report "
                             "--trace PATH' (default: REPRO_TRACE or off; "
                             "results are byte-identical either way)")
    parser.add_argument("--heartbeat", metavar="PATH", default=None,
                        help="maintain a live status JSON file while the "
                             "campaign runs — watch with 'python -m "
                             "repro.obs top PATH' (default: REPRO_HEARTBEAT "
                             "or off)")
    add_resilience_arguments(parser)
    args = parser.parse_args(argv)

    config = settings.resolve(CampaignConfig(
        trials=args.trials, seed=args.seed, swap_train_test=args.swap_inputs,
        jobs=args.jobs, obs_log=args.obs_log, checkpoint=args.checkpoint,
        resilience=resilience_from_args(args),
        snapshot_every=args.snapshot_every,
        fault_model=args.fault_model or (CHAOS_FAULT_MODEL if args.chaos else None),
        trace=args.trace, heartbeat=args.heartbeat, batch=args.batch,
    ))
    if config.obs_log:
        enable_global()
    on_trial = None
    on_recovery = None
    if not args.quiet:
        on_trial = ProgressPrinter(
            config.trials, label=f"{args.workload}/{args.scheme}"
        )
        on_recovery = on_trial.note
    result = run_campaign(
        get_workload(args.workload), args.scheme, config, on_trial=on_trial,
        on_recovery=on_recovery,
    )
    if on_trial is not None:
        on_trial.finish()

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
    if args.trace:
        print(f"  span trace exported to {args.trace} "
              f"(python -m repro.obs report --trace {args.trace}, "
              f"or load at ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
