#!/usr/bin/env python
"""Service smoke (the CI `service-smoke` job).

Drives the ``repro.serve`` campaign service through its headline crash
story: ~20 mixed-tenant campaigns (with deliberate cross-tenant duplicates)
are dropped into the inbox, a worker-pool service is started and SIGKILLed
mid-run, then restarted.  The restarted service must recover every
in-flight job from its checkpoint and finish the whole queue such that
every job's ``result.json`` and ``campaign.jsonl`` — and the shared cache
entry — are **byte-identical** to direct in-process runs of the same specs.

Examples::

    python scripts/serve_smoke.py --workdir serve-artifacts
    python scripts/serve_smoke.py --campaigns 30 --trials 60 --workers 4
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

from repro.faultinjection.campaign import CampaignConfig, prepare, run_campaign  # noqa: E402
from repro.faultinjection.diskcache import campaign_key  # noqa: E402
from repro.serve.client import load_queue_state, submit_to_inbox  # noqa: E402
from repro.serve.queue import JobState  # noqa: E402
from repro.serve.spec import CampaignSpec  # noqa: E402
from repro.serve.worker import job_paths  # noqa: E402
from repro.settings import ENV_NAMES  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

_TENANTS = ("alice", "bob", "carol", "dave")


def log(message: str) -> None:
    print(f"[serve-smoke] {message}", flush=True)


def build_specs(campaigns: int, trials: int, seed: int):
    """A mixed-tenant submission plan with guaranteed cross-tenant dupes.

    Cycles a pool of unique specs across the tenants; once the pool is
    shorter than the submission count, later submissions repeat earlier
    specs under different tenants — the dedup path under test.
    """
    pool = []
    for workload in ("g721dec", "tiff2bw"):
        for scheme in ("original", "dup", "dup_valchk", "full_dup"):
            for bump in (0, 1):
                pool.append(CampaignSpec(
                    workload=workload, scheme=scheme, trials=trials,
                    seed=seed + bump,
                ))
    plan = []
    for i in range(campaigns):
        plan.append((_TENANTS[i % len(_TENANTS)], pool[i % len(pool)]))
    return plan


def serve_cmd(root: Path, workers: int) -> list:
    return [
        sys.executable, "-m", "repro.serve", "run", "--root", str(root),
        "--workers", str(workers), "--until-idle",
    ]


def serve_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([existing] if existing else [])
    )
    return env


def wait_for(predicate, timeout: float, poll: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


def reference_artifacts(spec: CampaignSpec, ref_log: Path):
    """Direct in-process run of one spec: (result_doc, campaign_key)."""
    config = CampaignConfig(
        trials=spec.trials, seed=spec.seed, jobs=spec.jobs,
        swap_train_test=spec.swap_train_test,
        fault_model=spec.fault_model or "single_bit",
        obs_log=str(ref_log),
    )
    prepared = prepare(get_workload(spec.workload), spec.scheme, config)
    result = run_campaign(
        prepared.workload, spec.scheme, config, prepared=prepared
    )
    key = campaign_key(prepared.module, spec.workload, spec.scheme, config)
    return result.to_dict(), key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="serve-artifacts", metavar="DIR",
                        help="artifact directory (service root, cache, "
                             "references, report)")
    parser.add_argument("--campaigns", type=int, default=20, metavar="N",
                        help="submissions across the tenant mix (default 20)")
    parser.add_argument("--trials", type=int, default=40, metavar="N",
                        help="trials per campaign (default 40)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--workers", type=int, default=3, metavar="N",
                        help="service worker pool size (default 3)")
    parser.add_argument("--kill-after-running", type=int, default=None,
                        metavar="N",
                        help="SIGKILL once N jobs are running "
                             "(default: the worker count)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="report path (default <workdir>/serve-smoke.json)")
    args = parser.parse_args()

    for name in ENV_NAMES:
        os.environ.pop(name, None)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    root = workdir / "service-root"
    cache_dir = workdir / "cache"
    report_path = Path(args.json) if args.json else workdir / "serve-smoke.json"
    # Small checkpoint interval so the SIGKILL lands on runs with flushed
    # checkpoints to resume from; checkpoint cadence must not change bytes.
    os.environ["REPRO_CHECKPOINT_EVERY"] = "5"
    os.environ["REPRO_CACHE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)

    plan = build_specs(args.campaigns, args.trials, args.seed)
    unique = {spec.key(): spec for _, spec in plan}
    log(f"submitting {len(plan)} campaigns ({len(unique)} unique) from "
        f"{len(_TENANTS)} tenants, workers={args.workers}")
    job_ids = [(submit_to_inbox(root, spec, tenant=tenant), tenant, spec)
               for tenant, spec in plan]

    # -- phase 1: run and SIGKILL mid-queue ---------------------------------
    kill_threshold = args.kill_after_running or args.workers
    proc = subprocess.Popen(serve_cmd(root, args.workers), env=serve_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.STDOUT)

    def _running() -> int:
        return sum(1 for j in load_queue_state(root).jobs.values()
                   if j.state == JobState.RUNNING)

    try:
        if not wait_for(lambda: _running() >= kill_threshold, timeout=300):
            log(f"FAIL: never saw {kill_threshold} concurrent running jobs")
            return 1
        state = load_queue_state(root)
        killed_at = {
            "running": _running(),
            "done": state.counts()[JobState.DONE],
            "queued": state.counts()[JobState.QUEUED],
        }
        log(f"SIGKILL service pid {proc.pid} at {killed_at}")
        proc.kill()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()

    # -- phase 2: restart; recovery must finish everything ------------------
    log("restarting service; expecting full recovery to idle")
    rerun = subprocess.run(serve_cmd(root, args.workers), env=serve_env(),
                           timeout=1800, stdout=subprocess.DEVNULL,
                           stderr=subprocess.STDOUT)
    if rerun.returncode != 0:
        log(f"FAIL: restarted service exited {rerun.returncode}")
        return 1

    state = load_queue_state(root)
    not_done = [j for j in state.jobs.values() if j.state != JobState.DONE]
    if not_done:
        for job in not_done:
            log(f"FAIL: job {job.id} ended {job.state}: {job.error or ''}")
        return 1
    counters = dict(state.counters)
    log(f"queue drained: counters={counters}")

    # -- phase 3: byte-identity against direct runs -------------------------
    mismatches = []
    primaries = {}  # key -> executing job id
    for job_id, _, spec in job_ids:
        job = state.jobs[job_id]
        primaries.setdefault(job.key, job.primary or job_id)
    for key, spec in unique.items():
        ref_log = workdir / f"ref-{key[:16]}.jsonl"
        ref_doc, disk_key = reference_artifacts(spec, ref_log)
        paths = job_paths(root, primaries[key])
        with open(paths.result, "rb") as fh:
            if fh.read() != json.dumps(ref_doc).encode():
                mismatches.append(f"{spec.describe()}: result.json")
        with open(paths.obs_log, "rb") as fh:
            if fh.read() != ref_log.read_bytes():
                mismatches.append(f"{spec.describe()}: campaign.jsonl")
        entry_path = cache_dir / f"campaign-{disk_key}.json"
        try:
            with open(entry_path, encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry.get("result") != ref_doc:
                mismatches.append(f"{spec.describe()}: cache entry payload")
        except (OSError, ValueError):
            mismatches.append(f"{spec.describe()}: cache entry missing")

    report = {
        "campaigns": len(plan),
        "unique_specs": len(unique),
        "tenants": len(_TENANTS),
        "workers": args.workers,
        "trials": args.trials,
        "killed_at": killed_at,
        "counters": counters,
        "interrupted_jobs": counters.get("interrupted", 0),
        "deduped_jobs": counters.get("deduped", 0),
        "byte_identical": not mismatches,
        "mismatches": mismatches,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    log(f"wrote {report_path}")

    if mismatches:
        for item in mismatches:
            log(f"FAIL: diverged across kill-resume: {item}")
        return 1
    if counters.get("deduped", 0) < len(plan) - len(unique):
        log("FAIL: cross-tenant duplicates were not deduped")
        return 1
    log(f"ok: {len(plan)} campaigns ({len(unique)} executions, "
        f"{counters.get('deduped', 0)} deduped, "
        f"{counters.get('interrupted', 0)} interrupted by the kill) — "
        f"all byte-identical to direct runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
