"""Campaign service CLI.

Usage::

    python -m repro.serve run     --root R [--workers N] [--max-depth N]
                                  [--max-retries N] [--inline] [--until-idle]
    python -m repro.serve submit  --root R --workload W --scheme S
                                  [--trials N] [--seed N] [--fault-model M]
                                  [--jobs N] [--tenant T] [--wait] [--timeout S]
    python -m repro.serve status  --root R [--job ID] [--json]
    python -m repro.serve results --root R --job ID [--wait] [--timeout S]
    python -m repro.serve drain   --root R [--wait] [--timeout S]
    python -m repro.serve exec-job --root R --job ID          (internal)

``submit`` prints the job id on stdout (one token, script-friendly) and
exits 0 once the submission file is durably in the inbox; with ``--wait``
it blocks until the job is terminal and exits non-zero unless it is
``done``.  ``status`` renders the queue rebuilt read-only from the journal
— it needs no live service.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .. import settings
from . import client
from .queue import JobState
from .spec import DEFAULT_TENANT, CampaignSpec
from .service import Service, ServiceConfig
from .worker import execute_job


def _cmd_run(args) -> int:
    config = settings.from_args(
        ServiceConfig, args, root=args.root, backoff_seconds=args.backoff,
        inline=args.inline, until_idle=args.until_idle,
    )
    return Service(config).run()


def _spec_from_args(args) -> CampaignSpec:
    return CampaignSpec(
        workload=args.workload,
        scheme=args.scheme,
        trials=args.trials,
        seed=args.seed,
        fault_model=args.fault_model,
        jobs=args.jobs,
        swap_train_test=args.swap_train_test,
    )


def _cmd_submit(args) -> int:
    job_id = client.submit_to_inbox(
        args.root, _spec_from_args(args), tenant=args.tenant
    )
    print(job_id)
    if not args.wait:
        return 0
    job = client.wait_for_terminal(args.root, job_id, timeout=args.timeout)
    if job is None:
        print(f"submit: timed out after {args.timeout:g}s", file=sys.stderr)
        return 2
    if job.state != JobState.DONE:
        print(f"submit: job {job_id} ended {job.state}: {job.error or ''}",
              file=sys.stderr)
        return 1
    return 0


def _render_job(job) -> str:
    spec = CampaignSpec.from_dict(job.spec)
    line = (f"{job.id}  {job.state:<12} tenant={job.tenant:<10} "
            f"{spec.describe()}")
    if job.attempts:
        line += f"  attempts={job.attempts}"
    if job.primary:
        line += f"  primary={job.primary}"
    if job.error:
        line += f"  error={job.error.splitlines()[-1][:80]}"
    return line


def _cmd_status(args) -> int:
    state = client.load_queue_state(args.root)
    if args.job:
        job = state.jobs.get(args.job)
        if job is None:
            print(f"status: unknown job {args.job}", file=sys.stderr)
            return 1
        if args.json:
            json.dump(job.to_doc(), sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print(_render_job(job))
        return 0
    doc = client.service_status(args.root)
    if args.json:
        payload = {
            "service": doc,
            "counts": state.counts(),
            "counters": dict(state.counters),
            "jobs": [state.jobs[k].to_doc() for k in sorted(state.jobs)],
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    if doc is not None:
        print(f"service: status={doc.get('status')} pid={doc.get('pid')} "
              f"depth={doc.get('depth')}/{doc.get('max_depth')} "
              f"workers={doc.get('workers_busy')}/{doc.get('workers')}")
    counts = state.counts()
    print("queue:  " + "  ".join(
        f"{name}={counts[name]}" for name in JobState.ALL
    ))
    for job in state.in_state(*JobState.ALL):
        print(_render_job(job))
    return 0


def _cmd_results(args) -> int:
    if args.wait:
        job = client.wait_for_terminal(args.root, args.job,
                                       timeout=args.timeout)
        if job is None:
            print(f"results: timed out after {args.timeout:g}s",
                  file=sys.stderr)
            return 2
    state = client.load_queue_state(args.root)
    job = state.jobs.get(args.job)
    if job is None:
        print(f"results: unknown job {args.job}", file=sys.stderr)
        return 1
    if job.state in (JobState.SHED, JobState.QUARANTINED):
        print(f"results: job {args.job} was {job.state}: {job.error or ''}",
              file=sys.stderr)
        return 1
    result = client.result_for(args.root, args.job, state=state)
    if result is None:
        print(f"results: job {args.job} has no result yet "
              f"(state={job.state})", file=sys.stderr)
        return 1
    json.dump(result, sys.stdout, indent=2 if args.pretty else None)
    sys.stdout.write("\n")
    return 0


def _cmd_drain(args) -> int:
    client.request_drain(args.root)
    if not args.wait:
        return 0
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        doc = client.service_status(args.root)
        if doc is None or doc.get("status") == "stopped":
            return 0
        time.sleep(0.2)
    print(f"drain: service still running after {args.timeout:g}s",
          file=sys.stderr)
    return 2


def _cmd_exec_job(args) -> int:
    return execute_job(args.root, args.job)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Crash-safe multi-tenant campaign service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the service loop (foreground)")
    run.add_argument("--root", required=True,
                     help="service root directory (journal, inbox, jobs)")
    settings.add_flags(run, ServiceConfig)
    run.add_argument("--backoff", type=float,
                     default=ServiceConfig.backoff_seconds, metavar="SECONDS",
                     help="base retry backoff (default %(default)s)")
    run.add_argument("--inline", action="store_true",
                     help="execute jobs in-process (tests, single-host "
                          "load drives)")
    run.add_argument("--until-idle", action="store_true",
                     help="exit 0 once all jobs are terminal and the inbox "
                          "is empty")
    run.set_defaults(func=_cmd_run)

    submit = sub.add_parser("submit", help="queue one campaign")
    submit.add_argument("--root", required=True)
    submit.add_argument("--workload", required=True)
    submit.add_argument("--scheme", required=True)
    submit.add_argument("--trials", type=int, default=100)
    submit.add_argument("--seed", type=int, default=2014)
    submit.add_argument("--fault-model", default=None)
    submit.add_argument("--jobs", type=int, default=1,
                        help="worker processes inside the campaign")
    submit.add_argument("--swap-train-test", action="store_true")
    submit.add_argument("--tenant", default=DEFAULT_TENANT)
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal")
    submit.add_argument("--timeout", type=float, default=600.0)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="show queue + service state")
    status.add_argument("--root", required=True)
    status.add_argument("--job", default=None, metavar="ID")
    status.add_argument("--json", action="store_true")
    status.set_defaults(func=_cmd_status)

    results = sub.add_parser("results", help="print a job's campaign result")
    results.add_argument("--root", required=True)
    results.add_argument("--job", required=True, metavar="ID")
    results.add_argument("--wait", action="store_true")
    results.add_argument("--timeout", type=float, default=600.0)
    results.add_argument("--pretty", action="store_true")
    results.set_defaults(func=_cmd_results)

    drain = sub.add_parser("drain", help="ask the service to drain and exit")
    drain.add_argument("--root", required=True)
    drain.add_argument("--wait", action="store_true")
    drain.add_argument("--timeout", type=float, default=60.0)
    drain.set_defaults(func=_cmd_drain)

    exec_job = sub.add_parser("exec-job",
                              help="internal: run one admitted job")
    exec_job.add_argument("--root", required=True)
    exec_job.add_argument("--job", required=True)
    exec_job.set_defaults(func=_cmd_exec_job)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe reader (head, grep -q) closed early: clean exit.
        return 0


if __name__ == "__main__":
    sys.exit(main())
