#!/usr/bin/env python
"""End-to-end resilience smoke test (the CI `resilience-smoke` job).

Exercises the acceptance scenario for the campaign resilience layer with
real processes and real signals — things unit tests approximate:

1. **reference** — an undisturbed serial campaign; its result JSON and obs
   event log are the byte-level ground truth for everything below.
2. **kill + resume** — the same campaign with checkpointing on is SIGKILLed
   partway through, then re-invoked; the resumed run must be byte-identical
   (results *and* obs log) and the sidecar must show the checkpoint
   load/clear audit trail.
3. **worker kill** — a larger `--jobs 2` campaign, slowed down by turning
   snapshots and triage off, has one pool worker SIGKILLed while trials
   remain; the campaign must recover (retry → serial fallback), be
   byte-identical to its own `--jobs 1` reference, and show
   `worker_failure` in the sidecar.
4. **cache corruption** — one disk-cache entry of each kind (a campaign, a
   Figure 12 cycle count, a recovery row) is corrupted; the next run must
   quarantine each (preserving the evidence in `quarantine/`), report each
   as `cache_corrupt`, and recompute and rewrite it instead of trusting it.

Exits non-zero on the first violated invariant; artifacts stay in the
``--workdir`` (CI uploads them on failure).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOAD = "tiff2bw"  # fastest workload in the suite
SCHEME = "dup_valchk"
TRIALS = 60
SEED = 3
#: the worker-kill campaign's size: with snapshots and triage off it runs
#: for seconds, so the kill lands while trials remain
WORKER_KILL_TRIALS = 1200


def log(message: str) -> None:
    print(f"[resilience-smoke] {message}", flush=True)


def fail(message: str) -> None:
    log(f"FAIL: {message}")
    sys.exit(1)


def campaign_env(workdir: Path) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src")
    # Campaign phases must actually run trials, not replay the cache.
    env["REPRO_CACHE"] = "0"
    for name in ("REPRO_OBS", "REPRO_CHECKPOINT", "REPRO_CHECKPOINT_DIR",
                 "REPRO_RESILIENCE", "REPRO_JOBS", "REPRO_TRIALS"):
        env.pop(name, None)
    return env


def campaign_cmd(json_out: Path, obs_log: Path, *extra: str,
                 trials: int = TRIALS) -> list:
    return [
        sys.executable, "-m", "repro.faultinjection", WORKLOAD, SCHEME,
        "--trials", str(trials), "--seed", str(SEED), "--quiet",
        "--json", str(json_out), "--obs-log", str(obs_log), *extra,
    ]


def slow_env(env: dict) -> dict:
    """``env`` with the snapshot and triage accelerators off.

    A campaign runs several times slower without them, and its results and
    logs stay byte-identical (the house invariant; both are excluded from
    checkpoint compatibility too), so a kill phase can use it to land its
    signal mid-campaign even on a fast machine.
    """
    return {**env, "REPRO_SNAPSHOT_EVERY": "0", "REPRO_TRIAGE": "0"}


def read_sidecar(obs_log: Path) -> list:
    """The parsable events of ``obs_log``'s ``.resilience`` sidecar."""
    sidecar = Path(f"{obs_log}.resilience")
    if not sidecar.exists():
        return []
    events = []
    for line in sidecar.read_text().splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            pass
    return events


def read_sidecar_kinds(obs_log: Path) -> list:
    return [e["kind"] for e in read_sidecar(obs_log) if "kind" in e]


def expect_identical(path_a: Path, path_b: Path, what: str) -> None:
    if path_a.read_bytes() != path_b.read_bytes():
        fail(f"{what}: {path_a.name} differs from {path_b.name}")
    log(f"ok: {what} byte-identical")


def phase_reference(workdir: Path, env: dict) -> None:
    log(f"reference: {WORKLOAD}/{SCHEME} {TRIALS} trials, jobs=1")
    subprocess.run(
        campaign_cmd(workdir / "ref.json", workdir / "ref.jsonl", "--jobs", "1"),
        check=True, env=env, cwd=REPO,
    )


def phase_kill_and_resume(workdir: Path, env: dict) -> None:
    ckpt = workdir / "resume.ckpt"
    cmd = campaign_cmd(
        workdir / "resume.json", workdir / "resume.jsonl",
        "--jobs", "1", "--checkpoint", str(ckpt), "--checkpoint-every", "5",
    )
    # Slowed down: on a fast machine the accelerated campaign can finish
    # inside the kill window, clearing its checkpoint before the SIGKILL.
    log("kill+resume: starting campaign, will SIGKILL after first checkpoint")
    proc = subprocess.Popen(cmd, env=slow_env(env), cwd=REPO)
    deadline = time.time() + 120
    while not ckpt.exists():
        if proc.poll() is not None:
            fail("campaign finished before a checkpoint was ever written "
                 "(raise TRIALS or lower --checkpoint-every)")
        if time.time() > deadline:
            proc.kill()
            fail("no checkpoint appeared within 120s")
        time.sleep(0.05)
    # Let it get a little further past the flush, then kill without mercy.
    time.sleep(0.1)
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    if not ckpt.exists():
        fail("campaign outran the SIGKILL and cleared its checkpoint "
             "(finished before the kill landed)")
    log("killed; resuming from checkpoint with jobs=2")
    subprocess.run(cmd[:-6] + ["--jobs", "2", "--checkpoint", str(ckpt),
                               "--checkpoint-every", "5"],
                   check=True, env=env, cwd=REPO)
    expect_identical(workdir / "resume.json", workdir / "ref.json",
                     "kill+resume result JSON")
    expect_identical(workdir / "resume.jsonl", workdir / "ref.jsonl",
                     "kill+resume obs log")
    kinds = read_sidecar_kinds(workdir / "resume.jsonl")
    if "checkpoint_load" not in kinds or "checkpoint_clear" not in kinds:
        fail(f"resume audit trail incomplete: {kinds}")
    if ckpt.exists():
        fail("checkpoint not cleared after successful resume")
    log(f"ok: resume audit trail {sorted(set(kinds))}")


def worker_pids(parent_pid: int) -> list:
    """Direct children of ``parent_pid`` via /proc (Linux only)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().split()
            if int(fields[3]) == parent_pid:
                children.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return children


def phase_worker_kill(workdir: Path, env: dict) -> None:
    trials = WORKER_KILL_TRIALS
    log(f"worker-kill: reference of {trials} trials, jobs=1")
    subprocess.run(
        campaign_cmd(workdir / "workerkill-ref.json",
                     workdir / "workerkill-ref.jsonl", "--jobs", "1",
                     trials=trials),
        check=True, env=env, cwd=REPO,
    )
    cmd = campaign_cmd(
        workdir / "workerkill.json", workdir / "workerkill.jsonl",
        "--jobs", "2", "--max-retries", "2", trials=trials,
    )
    log("worker-kill: starting jobs=2 campaign, will SIGKILL one worker")
    proc = subprocess.Popen(cmd, env=slow_env(env), cwd=REPO)
    victim = None
    deadline = time.time() + 120
    while victim is None:
        if proc.poll() is not None:
            fail("campaign finished before a worker could be killed "
                 "(raise WORKER_KILL_TRIALS)")
        if time.time() > deadline:
            proc.kill()
            fail("no worker process appeared within 120s")
        children = worker_pids(proc.pid)
        if children:
            victim = children[0]
        else:
            time.sleep(0.02)
    # Give the worker a moment to pick up a chunk, then kill it.
    time.sleep(0.2)
    if proc.poll() is not None:
        fail("campaign finished before the kill (raise WORKER_KILL_TRIALS)")
    try:
        os.kill(victim, signal.SIGKILL)
    except ProcessLookupError:
        fail("the worker exited before the kill landed")
    log(f"SIGKILLed worker pid {victim}")
    returncode = proc.wait(timeout=600)
    if returncode != 0:
        fail(f"campaign did not survive the worker kill (exit {returncode})")
    expect_identical(workdir / "workerkill.json",
                     workdir / "workerkill-ref.json",
                     "worker-kill result JSON")
    expect_identical(workdir / "workerkill.jsonl",
                     workdir / "workerkill-ref.jsonl", "worker-kill obs log")
    kinds = read_sidecar_kinds(workdir / "workerkill.jsonl")
    if "worker_failure" not in kinds:
        fail(f"the kill broke no pool: no worker_failure event in {kinds}")
    log(f"ok: recovery audit trail {sorted(set(kinds))}")


def phase_cache_corruption(workdir: Path, env: dict) -> None:
    cache_dir = workdir / "cache"
    obs_log = workdir / "experiments.jsonl"
    exp_env = dict(env)
    exp_env["REPRO_CACHE"] = "1"
    exp_env["REPRO_CACHE_DIR"] = str(cache_dir)
    exp_env["REPRO_TRIALS"] = "6"
    exp_env["REPRO_OBS"] = str(obs_log)
    # One report per kind of entry: campaigns, cycle counts, recovery rows.
    cmd = [sys.executable, "-m", "repro.experiments", "figure2", "figure12",
           "recovery", "--workloads", WORKLOAD, "--quiet"]

    def reports() -> str:
        out = subprocess.run(cmd, check=True, env=exp_env, cwd=REPO,
                             stdout=subprocess.PIPE, text=True).stdout
        return "\n".join(line for line in out.splitlines()
                         if " done in " not in line)

    log("cache-corruption: priming the disk cache via repro.experiments")
    primed = reports()
    victims = []
    for kind in ("campaign", "cycles", "recovery"):
        entries = sorted(cache_dir.glob(f"{kind}-*.json"))
        if not entries:
            fail(f"experiment run produced no {kind} cache entries")
        victims.append(entries[0])
    for victim in victims:
        log(f"corrupting {victim.name}")
        victim.write_text(victim.read_text()[:-40] + "garbage")
    if reports() != primed:
        fail("reports differ after recomputing the corrupt entries")
    quarantined = {p.name.split(".")[0] for p in
                   (cache_dir / "quarantine").glob("*")}
    reported = {Path(e["path"]).name for e in read_sidecar(obs_log)
                if e.get("kind") == "cache_corrupt"}
    for victim in victims:
        if victim.stem not in quarantined:
            fail(f"corrupt cache entry {victim.name} was not quarantined")
        if victim.name not in reported:
            fail(f"no cache_corrupt audit event for {victim.name}")
        if not victim.exists():
            fail(f"corrupt cache entry {victim.name} was not rewritten")
        try:
            json.loads(victim.read_text())
        except ValueError:
            fail(f"rewritten cache entry {victim.name} does not parse")
    log("ok: one corrupt entry of each kind quarantined, audited, "
        "recomputed and rewritten")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="resilience-artifacts",
                        help="artifact directory (kept for CI upload)")
    args = parser.parse_args()
    if not hasattr(signal, "SIGKILL") or not os.path.isdir("/proc"):
        log("skipping: needs a Linux host (SIGKILL + /proc)")
        return 0
    workdir = Path(args.workdir).resolve()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = campaign_env(workdir)
    phase_reference(workdir, env)
    phase_kill_and_resume(workdir, env)
    phase_worker_kill(workdir, env)
    phase_cache_corruption(workdir, env)
    log("all resilience invariants held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
