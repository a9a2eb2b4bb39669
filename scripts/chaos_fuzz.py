#!/usr/bin/env python
"""Chaos-fuzz CLI (the CI `chaos-smoke` job).

Sweeps randomized corruptions across workloads × protection schemes × fault
models (see :mod:`repro.faultinjection.chaos`) and fails loudly unless every
trial terminates with a classified outcome, zero exceptions escape the
campaign engine, zero workers die, and zero trials hit the wall-clock
watchdog.

Examples::

    python scripts/chaos_fuzz.py --trials 300
    python scripts/chaos_fuzz.py --trials 1000 --jobs 4 --json chaos.json
    python scripts/chaos_fuzz.py --models burst,stuck_at --schemes dup,full_dup
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.faultinjection.chaos import DEFAULT_MODELS, run_chaos_sweep  # noqa: E402
from repro.settings import ENV_NAMES  # noqa: E402
from repro.transforms.pipeline import SCHEMES  # noqa: E402
from repro.workloads.registry import BENCHMARK_NAMES  # noqa: E402


def log(message: str) -> None:
    print(f"[chaos-fuzz] {message}", flush=True)


def run_service_sweep(models, workloads, schemes, trials: int,
                      seed: int, workdir: Path) -> dict:
    """Push every fault model through the ``repro.serve`` queue path.

    One campaign per model x workload (schemes cycled) is admitted via the
    inbox and executed by an inline service.  The sweep passes iff the
    service exits cleanly, zero exceptions escape (an escape would
    quarantine the job), and zero queue entries wedge — nothing may be
    left ``queued``/``running``/``deduped`` after the service reports idle.
    """
    from repro.serve.client import load_queue_state, submit_to_inbox
    from repro.serve.queue import JobState
    from repro.serve.service import Service, ServiceConfig
    from repro.serve.spec import CampaignSpec

    root = workdir / "chaos-service-root"
    submitted = []
    i = 0
    for model in models:
        for workload in workloads:
            spec = CampaignSpec(
                workload=workload, scheme=schemes[i % len(schemes)],
                trials=trials, seed=seed + i, fault_model=model,
            )
            tenant = f"tenant{i % 3}"
            submitted.append((submit_to_inbox(root, spec, tenant=tenant),
                              model, spec))
            i += 1
    log(f"service sweep: {len(submitted)} campaigns "
        f"({len(models)} models) through the inline queue")

    violations = []
    config = ServiceConfig(
        root=str(root), inline=True, until_idle=True,
        backoff_seconds=0.0, poll_interval=0.01,
    )
    try:
        rc = Service(config).run()
    except BaseException as err:  # noqa: BLE001 - the sweep's whole point
        violations.append(f"exception escaped the service loop: {err!r}")
        rc = -1
    if rc != 0:
        violations.append(f"service exited {rc}, expected 0")

    state = load_queue_state(root)
    by_model = {}
    for job_id, model, spec in submitted:
        job = state.jobs.get(job_id)
        job_state = job.state if job is not None else "missing"
        by_model.setdefault(model, {}).setdefault(job_state, 0)
        by_model[model][job_state] += 1
        if job is None:
            violations.append(f"{spec.describe()}: job vanished from queue")
        elif job.state in (JobState.QUEUED, JobState.RUNNING,
                           JobState.DEDUPED):
            violations.append(
                f"{spec.describe()}: wedged in state {job.state}"
            )
        elif job.state != JobState.DONE:
            violations.append(
                f"{spec.describe()}: ended {job.state}: {job.error or ''}"
            )
    quarantined = dict(state.counters).get("quarantined", 0)
    if quarantined:
        violations.append(f"{quarantined} jobs quarantined by the sweep")

    return {
        "ok": not violations,
        "campaigns": len(submitted),
        "models": list(models),
        "job_states_by_model": by_model,
        "counters": dict(state.counters),
        "violations": violations,
    }


def _csv(value: str, universe, what: str, parser) -> tuple:
    items = tuple(item.strip() for item in value.split(",") if item.strip())
    unknown = set(items) - set(universe)
    if unknown:
        parser.error(f"unknown {what}: {sorted(unknown)}")
    return items


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000, metavar="N",
                        help="minimum injection trials per fault model, "
                             "split across the workload x scheme grid "
                             "(default: 1000)")
    parser.add_argument("--workloads", default="tiff2bw,g721dec",
                        metavar="A,B,...",
                        help="comma-separated benchmarks to corrupt "
                             "(default: tiff2bw,g721dec — the fastest two)")
    parser.add_argument("--schemes", default=",".join(SCHEMES),
                        metavar="A,B,...",
                        help="comma-separated protection schemes "
                             f"(default: all {len(SCHEMES)})")
    parser.add_argument("--models", default=",".join(DEFAULT_MODELS),
                        metavar="A,B,...",
                        help="comma-separated fault models "
                             "(default: every model plus 'chaos')")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="worker processes per campaign (default: 2, so "
                             "the sweep also fuzzes the parallel path)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON (CI "
                             "uploads this as an artifact)")
    parser.add_argument("--service", action="store_true",
                        help="also sweep every fault model through the "
                             "repro.serve queue path (inline service); "
                             "fails on escaped exceptions or wedged jobs")
    parser.add_argument("--service-trials", type=int, default=60, metavar="N",
                        help="trials per service-sweep campaign (default 60)")
    parser.add_argument("--workdir", default="chaos-artifacts", metavar="DIR",
                        help="scratch/artifact directory for the service "
                             "sweep (default: chaos-artifacts)")
    args = parser.parse_args()

    # Every knob is cleared up front so the sweep is hermetic: no stray
    # event logs, inherited checkpoints or forced fault model.
    for name in ENV_NAMES:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE"] = "0"

    workloads = _csv(args.workloads, BENCHMARK_NAMES, "workloads", parser)
    schemes = _csv(args.schemes, SCHEMES, "schemes", parser)
    models = _csv(args.models, DEFAULT_MODELS, "models", parser)

    log(f"sweeping {len(workloads)} workload(s) x {len(schemes)} scheme(s) "
        f"x {len(models)} model(s), >= {args.trials} trials per model, "
        f"jobs={args.jobs}")
    report = run_chaos_sweep(
        workloads, schemes, trials_per_model=args.trials, seed=args.seed,
        jobs=args.jobs, models=models, on_progress=log,
    )

    print()
    print(report.render_text())

    service_report = None
    if args.service:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        service_report = run_service_sweep(
            models, workloads, schemes, trials=args.service_trials,
            seed=args.seed, workdir=workdir,
        )

    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = report.to_json()
        if service_report is not None:
            doc["service_sweep"] = service_report
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        log(f"wrote {path}")
    failed = not report.ok
    if not report.ok:
        log(f"FAIL: {len(report.violations)} violation(s)")
    if service_report is not None:
        if service_report["ok"]:
            log(f"service sweep ok: {service_report['campaigns']} campaigns, "
                f"zero escapes, zero wedged queue entries")
        else:
            failed = True
            for item in service_report["violations"]:
                log(f"FAIL (service sweep): {item}")
    if failed:
        return 1
    log("all invariants held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
