#!/usr/bin/env python
"""Service load test: >=1k campaigns through a bounded-depth queue.

Floods the ``repro.serve`` service with a multi-tenant submission storm —
far more submissions than unique specs, far more queued work than the
admission bound allows at once — and asserts the robustness story end to
end:

* the queue depth never exceeds the configured bound (admission control),
* the driver rides load-shedding as backpressure: a shed submission is
  retried until admitted (or deduped) instead of being lost,
* content-hash dedup collapses the storm by at least 2x: one execution
  serves every tenant that asked for the same spec,
* zero jobs are quarantined (nothing in the storm is poison; a quarantine
  here means a service bug),
* every submission ends ``done`` with a readable result.

Numbers land in ``<workdir>/serve-load.json``; ``--bench PATH`` also
records them as the ``service`` section of a JSON file.

Examples::

    python scripts/serve_load_test.py --campaigns 1000 --depth 64
    python scripts/serve_load_test.py --campaigns 200 --pool 40
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve.client import (  # noqa: E402
    load_queue_state,
    request_drain,
    result_for,
    submit_to_inbox,
)
from repro.serve.queue import JobState  # noqa: E402
from repro.serve.spec import CampaignSpec  # noqa: E402

_SCRUBBED_ENV = (
    "REPRO_OBS", "REPRO_OBS_TIMING", "REPRO_TRACE", "REPRO_HEARTBEAT",
    "REPRO_CHECKPOINT", "REPRO_CHECKPOINT_DIR", "REPRO_FAULT_MODEL",
    "REPRO_TRIALS", "REPRO_JOBS", "REPRO_SERVE_WORKERS", "REPRO_SERVE_DEPTH",
    "REPRO_SERVE_RETRIES", "REPRO_RESILIENCE", "REPRO_MAX_RETRIES",
    "REPRO_TRIAL_DEADLINE", "REPRO_CHECKPOINT_EVERY",
)

_TENANTS = ("alice", "bob", "carol", "dave", "erin", "frank")


def log(message: str) -> None:
    print(f"[serve-load] {message}", flush=True)


def build_pool(size: int, trials: int, seed: int):
    """``size`` unique specs cycling workloads x schemes x seeds."""
    pool = []
    bump = 0
    while len(pool) < size:
        for workload in ("tiff2bw", "g721dec"):
            for scheme in ("original", "dup", "dup_valchk", "full_dup"):
                if len(pool) >= size:
                    break
                pool.append(CampaignSpec(
                    workload=workload, scheme=scheme, trials=trials,
                    seed=seed + bump,
                ))
        bump += 1
    return pool


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--campaigns", type=int, default=1000, metavar="N",
                        help="total submissions across tenants (default 1000)")
    parser.add_argument("--pool", type=int, default=100, metavar="N",
                        help="unique specs in the storm; collapse factor is "
                             "campaigns/pool (default 100 → 10x)")
    parser.add_argument("--depth", type=int, default=64, metavar="N",
                        help="admission bound under test (default 64)")
    parser.add_argument("--trials", type=int, default=4, metavar="N",
                        help="trials per campaign — small on purpose: the "
                             "queue, not the engine, is under test (default 4)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--workdir", default="serve-load-artifacts",
                        metavar="DIR")
    parser.add_argument("--bench", default="", metavar="PATH",
                        help="JSON file to record the 'service' section into "
                             "(default: none)")
    parser.add_argument("--timeout", type=float, default=1800.0)
    args = parser.parse_args()

    for name in _SCRUBBED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE"] = "0"  # queue throughput, not cache, under test
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    root = workdir / "service-root"

    pool = build_pool(args.pool, args.trials, args.seed)
    log(f"storm: {args.campaigns} submissions over {len(pool)} unique specs "
        f"({len(_TENANTS)} tenants), depth bound {args.depth}")

    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([existing] if existing else [])
    )
    # Inline execution: the service process runs campaigns itself — the load
    # test measures queue machinery (journal, dedup, shedding, fairness)
    # under storm conditions, not multi-process campaign throughput.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "run", "--root", str(root),
         "--inline", "--max-depth", str(args.depth)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )

    started = time.monotonic()
    deadline = started + args.timeout
    my_jobs = []       # job ids whose terminal state we own
    shed_retries = 0
    max_depth_seen = 0
    try:
        submitted = 0
        while submitted < args.campaigns:
            state = load_queue_state(root)
            depth = state.depth()
            max_depth_seen = max(max_depth_seen, depth)
            # Backpressure: pace submissions against the observed depth.
            # This deliberately ignores the in-flight inbox backlog, so the
            # driver races the admission loop past the bound now and then —
            # the resulting "queue full" sheds exercise the retry path below.
            budget = args.depth - depth
            if budget <= 0:
                if time.monotonic() > deadline:
                    raise TimeoutError("storm timed out while submitting")
                time.sleep(0.05)
                continue
            for _ in range(min(budget, args.campaigns - submitted)):
                spec = pool[submitted % len(pool)]
                tenant = _TENANTS[submitted % len(_TENANTS)]
                my_jobs.append(submit_to_inbox(root, spec, tenant=tenant))
                submitted += 1
            if submitted % 200 < len(_TENANTS):
                log(f"submitted {submitted}/{args.campaigns} "
                    f"(depth {depth}, retries {shed_retries})")

        # Retry any depth-shed submissions until everything we own is
        # terminal-and-not-shed: shedding is backpressure, not data loss.
        while True:
            state = load_queue_state(root)
            max_depth_seen = max(max_depth_seen, state.depth())
            pending = [j for j in my_jobs
                       if state.jobs.get(j) is None
                       or state.jobs[j].state not in JobState.TERMINAL
                       or (state.jobs[j].state == JobState.SHED
                           and "queue full" in (state.jobs[j].error or ""))]
            resubmit = [j for j in pending
                        if state.jobs.get(j) is not None
                        and state.jobs[j].state == JobState.SHED
                        and "queue full" in (state.jobs[j].error or "")]
            for job_id in resubmit:
                shed = state.jobs[job_id]
                my_jobs.remove(job_id)
                my_jobs.append(submit_to_inbox(
                    root, CampaignSpec.from_dict(shed.spec),
                    tenant=shed.tenant,
                ))
                shed_retries += 1
            if not pending:
                break
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{len(pending)} jobs not terminal at timeout"
                )
            time.sleep(0.1)
    except TimeoutError as err:
        log(f"FAIL: {err}")
        proc.kill()
        return 1
    finally:
        if proc.poll() is None:
            request_drain(root)
            try:
                proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
    wall = time.monotonic() - started

    if proc.returncode != 0:
        log(f"FAIL: service exited {proc.returncode} after drain")
        return 1

    # -- invariants ----------------------------------------------------------
    state = load_queue_state(root)
    counters = dict(state.counters)
    failures = []
    not_done = [j for j in my_jobs if state.jobs[j].state != JobState.DONE]
    if not_done:
        failures.append(f"{len(not_done)} submissions did not end done")
    if counters.get("quarantined", 0):
        failures.append(
            f"{counters['quarantined']} jobs quarantined — service bug"
        )
    executions = counters.get("done", 0)
    collapse = len(my_jobs) / max(executions, 1)
    if collapse < 2.0:
        failures.append(f"dedup collapse {collapse:.1f}x < 2x")
    if max_depth_seen > args.depth:
        failures.append(
            f"depth bound violated: saw {max_depth_seen} > {args.depth}"
        )
    sample = result_for(root, my_jobs[-1])
    if sample is None or sample.get("trials") != args.trials:
        failures.append("sample result unreadable through the client")

    section = {
        "submissions": len(my_jobs),
        "unique_specs": len(pool),
        "executions": executions,
        "dedup_collapse": round(collapse, 2),
        "deduped": counters.get("deduped", 0),
        "shed_retried": shed_retries,
        "quarantined": counters.get("quarantined", 0),
        "depth_bound": args.depth,
        "max_depth_seen": max_depth_seen,
        "wall_seconds": round(wall, 2),
        "submissions_per_sec": round(len(my_jobs) / wall, 1),
        "counters": counters,
    }
    with open(workdir / "serve-load.json", "w", encoding="utf-8") as fh:
        json.dump(section, fh, indent=2)
        fh.write("\n")
    if args.bench:
        try:
            with open(args.bench, encoding="utf-8") as fh:
                bench = json.load(fh)
        except (OSError, ValueError):
            bench = {}
        bench["service"] = section
        with open(args.bench, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=2)
            fh.write("\n")
        log(f"recorded 'service' section in {args.bench}")

    if failures:
        for item in failures:
            log(f"FAIL: {item}")
        return 1
    log(f"ok: {len(my_jobs)} submissions → {executions} executions "
        f"({collapse:.1f}x dedup collapse), max depth {max_depth_seen} <= "
        f"{args.depth}, {shed_retries} shed+retried, 0 quarantined, "
        f"{wall:.1f}s ({section['submissions_per_sec']}/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
