"""One part of a ledger repetition, run in a fresh process by ``run.py``.

Usage: ``python benchmarks/ledger/child.py TASK.json``.  The task names the
workload, the part, the seed, the scale, and where to write the result
document.  ``run.py`` scrubs every ``REPRO_*`` variable before it spawns
this process and sets only the workload's own settings.

Parts:

* ``cold`` and ``warm``: the two passes of ``paper-eval``;
* ``rep``: one repetition of ``campaign-1000``, ``memfault`` or ``service``;
* ``setup``: the workload's set-up alone, for more ``setup_s`` samples;
* ``extras``: traced-run ablations and telemetry overheads.

Timed regions hold only the program's work.  Output checks run after them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import replace
from typing import Dict, List, Optional

import layers

#: benchmarks and schemes of the ``service`` workload's fresh specs
SERVICE_WORKLOADS = ("tiff2bw", "g721dec")
SCHEMES = ("original", "dup", "dup_valchk", "full_dup")
#: a repeat names a spec submitted at least this many places earlier, so
#: with two closed-loop clients its primary has almost always finished
REPEAT_LAG = 4


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


class Part:
    """What one child process measured, plus its traced-run spans."""

    def __init__(self, task: Dict) -> None:
        self.task = task
        self.seed = task["seed"]
        self.scale = task["scale"]
        self.trace: Optional[layers.LayerTrace] = None
        if task.get("traced"):
            self.trace = layers.LayerTrace(task["trace_path"]).install()
        self.result: Dict = {
            "setup_s": None, "wall_s": None, "ops": [], "attempted": 0,
            "failed": 0, "digest": {}, "problems": [],
        }

    def since_spawn(self) -> float:
        return time.monotonic() - self.task["spawned"]

    def span(self, name: str, cat: str = "bench"):
        if self.trace is None:
            return contextlib.nullcontext()
        return self.trace.span(name, cat)

    def problem(self, message: str) -> None:
        self.result["problems"].append(message)

    def finish(self) -> Dict:
        if self.trace is not None:
            self.result["raw_layers"] = {
                **self.trace.export(),
                "counts": self.trace.counts,
                "registry": layers.registry_counts(),
            }
            self.trace.uninstall()
        return self.result


# -- paper-eval ---------------------------------------------------------------


def paper_eval(part: Part, name: str) -> None:
    """One pass of ``python -m repro.experiments all`` with the seed exposed.

    ``cold`` renders every report of ``all`` in its order; ``warm`` runs in
    a second process on the same cache directory and re-renders the
    cache-backed reports.
    """
    from repro.experiments import __main__ as cli
    from repro.experiments.runner import ExperimentSettings, reset_global_cache

    scale = part.scale
    settings = ExperimentSettings(
        trials=scale["trials"], seed=part.seed,
        workloads=tuple(scale["benchmarks"]), jobs=1, progress=False,
    )
    cache = reset_global_cache(settings)
    reports = list(cli._ALL_ORDER) if name == "cold" else scale["warm_reports"]
    if tuple(cli._ALL_ORDER) != layers.REPORTS:
        part.problem(f"report order changed: {cli._ALL_ORDER}")
    part.result["setup_s"] = part.since_spawn()
    if name == "setup":
        return

    texts: Dict[str, Optional[str]] = {}
    start = time.monotonic()
    with part.span("workload"):
        for report in reports:
            began = time.monotonic()
            try:
                with part.span(report, "experiments"):
                    texts[report] = cli.EXPERIMENTS[report](cache)
            except Exception:
                traceback.print_exc()
                texts[report] = None
                part.result["failed"] += 1
            part.result["ops"].append(time.monotonic() - began)
    part.result["wall_s"] = time.monotonic() - start
    part.result["attempted"] = len(reports)
    part.result["digest"] = {
        f"{name}_sha256": sha256("\n".join(
            texts[r] if texts[r] is not None else "<raised>" for r in reports
        )),
    }
    part.result["reports"] = {
        r: sha256(t) if t is not None else None for r, t in texts.items()
    }


# -- campaign-1000 and memfault ---------------------------------------------


def _campaign_configs(part: Part):
    from repro.faultinjection.campaign import CampaignConfig

    return [
        (f"{wl}/{scheme}/{model}", wl, scheme,
         CampaignConfig(trials=part.scale["trials"], seed=part.seed,
                        fault_model=model))
        for wl, scheme, model in part.scale["campaigns"]
    ]


def campaigns(part: Part, name: str) -> None:
    """Set-up is every ``prepare()``; the timed work is every
    ``run_campaign(prepared=...)``, with ``CampaignConfig`` defaults."""
    from repro.faultinjection import campaign as cmod
    from repro.workloads.registry import get_workload

    jobs = [
        (label, scheme, config,
         cmod.prepare(get_workload(wl), scheme, config))
        for label, wl, scheme, config in _campaign_configs(part)
    ]
    part.result["setup_s"] = part.since_spawn()
    if name == "setup":
        return

    results = {}
    start = time.monotonic()
    with part.span("workload"):
        for label, scheme, config, prepared in jobs:
            began = time.monotonic()
            try:
                results[label] = cmod.run_campaign(
                    prepared.workload, scheme, config, prepared=prepared
                )
            except Exception:
                traceback.print_exc()
                results[label] = None
            part.result["ops"].append(time.monotonic() - began)
    part.result["wall_s"] = time.monotonic() - start

    trials = part.scale["trials"]
    for label, _, _, _ in jobs:
        result = results[label]
        part.result["attempted"] += trials
        if result is None:
            part.result["failed"] += trials
            part.result["digest"][label] = None
            continue
        part.result["failed"] += sum(
            t.trap_kind == "harness_timeout" for t in result.trials
        )
        part.result["digest"][label] = {
            "tallies": {k: v for k, v in result.counts().items() if v},
            "sha256": sha256(canonical(result.to_dict())),
        }
    if part.task.get("verify"):
        _verify_trials(part, jobs, results)


def _verify_trials(part: Part, jobs, results) -> None:
    """Re-run sampled trials on the reference interpreter, with snapshots
    and triage off, and require the exact trial record of the timed run."""
    from repro.faultinjection import campaign as cmod
    from repro.faultinjection.outcomes import trial_to_record

    os.environ["REPRO_FASTPATH"] = "0"
    rng = random.Random(f"verify:{part.seed}")
    checked = 0
    for label, _, config, prepared in jobs:
        result = results[label]
        if result is None:
            continue
        plans = cmod.draw_plans(config, prepared)
        reference = replace(config, snapshot_every=0, triage=False)
        for index in rng.sample(range(len(plans)),
                                part.scale["verify_trials"]):
            plan = plans[index]
            trial = cmod.run_trial(prepared, plan.cycle, plan.bit, plan.seed,
                                   reference, model=plan.model)
            if trial_to_record(trial) != trial_to_record(result.trials[index]):
                part.problem(
                    f"{label} trial {index}: timed run "
                    f"{trial_to_record(result.trials[index])} != reference "
                    f"{trial_to_record(trial)}"
                )
            checked += 1
    del os.environ["REPRO_FASTPATH"]
    part.result["verified_trials"] = checked


# -- service ------------------------------------------------------------------


def submission_plan(seed: int, scale: Dict):
    """The closed loop's submissions: exactly ``fresh`` distinct specs and
    ``repeats`` resubmissions of specs placed at least REPEAT_LAG earlier."""
    from repro.serve.spec import CampaignSpec

    rng = random.Random(f"service:{seed}")
    total = scale["fresh"] + scale["repeats"]
    repeat_slots = set(rng.sample(range(REPEAT_LAG, total), scale["repeats"]))
    seeds = rng.sample(range(1 << 30), scale["fresh"])
    plan, fresh = [], []
    for position in range(total):
        if position in repeat_slots:
            spec = rng.choice([
                s for at, s in fresh if at <= position - REPEAT_LAG
            ])
            plan.append(("repeat", spec))
        else:
            spec = CampaignSpec(
                workload=rng.choice(SERVICE_WORKLOADS),
                scheme=rng.choice(SCHEMES),
                trials=scale["trials"], seed=seeds.pop(),
            )
            fresh.append((position, spec))
            plan.append(("fresh", spec))
    return plan


def _start_service(root: str, workers: int):
    from repro.serve import client

    log = open(os.path.join(os.path.dirname(root), "service.log"), "ab")
    spawned = time.monotonic()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "run", "--root", root,
         "--workers", str(workers)],
        stdout=log, stderr=subprocess.STDOUT,
    )
    deadline = spawned + 60
    while True:
        status = client.service_status(root)
        if status is not None and status.get("status") == "running":
            return server, log, time.monotonic() - spawned
        if server.poll() is not None or time.monotonic() > deadline:
            _stop_service(server, log, root)
            raise RuntimeError("service did not reach status running")
        time.sleep(0.005)


def _stop_service(server, log, root: str) -> None:
    """Drain the service and wait for it; kill it if the drain stalls."""
    from repro.serve import client

    try:
        client.request_drain(root)
        server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    finally:
        log.close()


def service(part: Part, name: str) -> None:
    """Two closed-loop clients submit, then wait for a terminal state."""
    from repro.serve import client

    scale = part.scale
    root = os.path.join(part.task["work"], "service")
    server, log, part.result["setup_s"] = _start_service(
        root, scale["workers"]
    )
    try:
        if name != "setup":
            samples = _closed_loop(part, client, root)
    finally:
        _stop_service(server, log, root)
    if name == "setup":
        return

    fresh = [s for s in samples if s["kind"] == "fresh"]
    part.result["ops"] = [s["latency"] for s in fresh]
    part.result["dedup_ops"] = [
        s["latency"] for s in samples if s["kind"] == "repeat"
    ]
    part.result["wall_s"] = (
        max(s["end"] for s in samples) - min(s["start"] for s in samples)
    )
    part.result["attempted"] = len(samples)
    part.result["failed"] = sum(s["state"] != "done" for s in samples)

    state = client.load_queue_state(root)
    documents = [client.result_for(root, s["job"], state=state) for s in fresh]
    part.result["digest"] = {"results_sha256": sha256(canonical(documents))}
    if part.task.get("verify"):
        _verify_results(part, fresh, documents)
    if part.trace is not None:
        part.result["serve_layers"] = layers.serve_layers(
            os.path.join(root, "journal.jsonl"),
            {s["job"]: s["submitted_unix"] for s in samples},
            part.result["dedup_ops"],
        )


def _closed_loop(part: Part, client, root: str) -> List[Dict]:
    scale = part.scale
    plan = iter(enumerate(submission_plan(part.seed, scale)))
    lock = threading.Lock()
    samples: List[Dict] = []

    def run_client(number: int) -> None:
        while True:
            with lock:
                item = next(plan, None)
            if item is None:
                return
            position, (kind, spec) = item
            with part.span("workload"):
                start, submitted = time.monotonic(), time.time()
                job_id = client.submit_to_inbox(root, spec,
                                                tenant=f"client-{number}")
                job = client.wait_for_terminal(root, job_id, timeout=120,
                                               poll=0.02)
                end = time.monotonic()
            with lock:
                samples.append({
                    "position": position, "kind": kind, "job": job_id,
                    "spec": spec,
                    "start": start, "end": end, "latency": end - start,
                    "submitted_unix": submitted,
                    "state": job.state if job is not None else "timeout",
                })

    threads = [
        threading.Thread(target=run_client, args=(n,))
        for n in range(scale["clients"])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s["position"])
    return samples


def _verify_results(part: Part, fresh: List[Dict], documents) -> None:
    """Sampled service results must equal an in-process ``run_campaign``."""
    from repro.faultinjection.campaign import CampaignConfig, run_campaign
    from repro.workloads.registry import get_workload

    rng = random.Random(f"verify:{part.seed}")
    count = min(part.scale["verify_results"], len(fresh))
    for index in rng.sample(range(len(fresh)), count):
        spec = fresh[index]["spec"]
        expected = run_campaign(
            get_workload(spec.workload), spec.scheme,
            CampaignConfig(trials=spec.trials, seed=spec.seed),
        ).to_dict()
        if documents[index] != expected:
            part.problem(f"service result for {spec.describe()} differs "
                         "from an in-process run_campaign")
    part.result["verified_results"] = count


# -- traced-run extras --------------------------------------------------------


@contextlib.contextmanager
def _environ(overrides: Dict[str, str]):
    saved = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _best_of(part: Part, prepared, variants: Dict, rounds: int) -> Dict:
    """Time each variant ``rounds`` times, interleaved, and require that all
    variants produce the same campaign result.

    A variant is ``(config, env)``; ``config`` may be a function of the
    round number, for settings that name a fresh file each round.
    """
    from repro.faultinjection import campaign as cmod

    seconds = {name: [] for name in variants}
    digests = {}
    for round_number in range(rounds):
        for name, (config, env) in variants.items():
            if callable(config):
                config = config(round_number)
            with _environ(env):
                began = time.perf_counter()
                result = cmod.run_campaign(
                    prepared.workload, prepared.scheme, config,
                    prepared=prepared,
                )
                seconds[name].append(time.perf_counter() - began)
            digests.setdefault(name, sha256(canonical(result.to_dict())))
    if len(set(digests.values())) != 1:
        part.problem(f"{prepared.workload.name}/{prepared.scheme}: variants "
                     f"{sorted(variants)} disagree on the campaign result")
    return seconds


def _speedup(seconds: Dict, base: str, layer: str) -> Dict:
    pairs = [b / l for b, l in zip(seconds[base], seconds[layer])]
    return {
        "best": min(seconds[base]) / min(seconds[layer]),
        "min": min(pairs), "max": max(pairs),
        "base_s": seconds[base], "layer_s": seconds[layer],
    }


def _overhead_pct(seconds: Dict, base: str, layer: str) -> float:
    return 100.0 * (min(seconds[layer]) / min(seconds[base]) - 1.0)


def extras(part: Part, name: str) -> None:
    """Marginal speedup of each speed layer over the layer below it, and
    the cost of the program's own telemetry, each as best-of-N pairs."""
    from repro.faultinjection.campaign import CampaignConfig, prepare
    from repro.workloads.registry import get_workload

    scale = part.scale
    rounds = scale["rounds"]
    info: Dict[str, Dict] = {}
    out: Dict[str, float] = {}
    work = part.task["work"]

    def prepared_for(wl: str, config):
        return prepare(get_workload(wl), "dup_valchk", config)

    workload = part.task["workload"]
    if workload == "campaign-1000":
        for wl in layers.ABLATION_BENCHMARKS:
            base = CampaignConfig(trials=scale["trials"], seed=part.seed)
            prepared = prepared_for(wl, base)
            # The layers below triage are slow, so they run fewer trials.
            snapshot = replace(base, snapshot_every=-1, triage=False)
            plain = replace(snapshot, snapshot_every=0,
                            trials=scale["slow_trials"])
            seconds = _best_of(part, prepared, {
                "reference": (plain, {"REPRO_FASTPATH": "0"}),
                "fastpath": (plain, {}),
                "snapshot": (replace(plain, snapshot_every=-1), {}),
            }, rounds)
            for layer, below in (("fastpath", "reference"),
                                 ("snapshot", "fastpath")):
                info[f"ablation.{layer}_speedup.{wl}"] = _speedup(
                    seconds, below, layer)
            seconds = _best_of(part, prepared, {
                "snapshot": (snapshot, {}),
                "triage": (base, {}),
                "batched": (replace(base, batch=base.trials), {}),
                "parallel": (replace(base, jobs=2), {}),
            }, rounds)
            for layer, below in (("triage", "snapshot"),
                                 ("batched", "triage"),
                                 ("parallel", "triage")):
                info[f"ablation.{layer}_speedup.{wl}"] = _speedup(
                    seconds, below, layer)
        base = CampaignConfig(trials=scale["trials"], seed=part.seed)
        seconds = _best_of(part, prepared_for("g721dec", base), {
            "untraced": (base, {}),
            "traced": (lambda i: replace(
                base, trace=os.path.join(work, f"program-trace-{i}.json")
            ), {}),
        }, rounds)
        out["obs.trace_overhead_pct"] = _overhead_pct(
            seconds, "untraced", "traced")
    elif workload == "memfault":
        for wl in layers.STACK_FRAME_BENCHMARKS:
            base = CampaignConfig(trials=scale["trials"], seed=part.seed,
                                  fault_model="stack_frame")
            prepared = prepared_for(wl, base)
            seconds = _best_of(part, prepared, {
                "scalar": (base, {}),
                "batched": (replace(base, batch=base.trials), {}),
            }, rounds)
            info[f"ablation.batched_speedup_stack_frame.{wl}"] = _speedup(
                seconds, "scalar", "batched")
    elif workload == "service":
        base = CampaignConfig(trials=scale["trials"], seed=part.seed)
        seconds = _best_of(part, prepared_for("g721dec", base), {
            "unlogged": (base, {}),
            "logged": (lambda i: replace(
                base, obs_log=os.path.join(work, f"events-{i}.jsonl")
            ), {}),
        }, rounds)
        out["obs.event_log_overhead_pct"] = _overhead_pct(
            seconds, "unlogged", "logged")
    for key, value in info.items():
        out[key] = value["best"]
    part.result["layers"] = out
    part.result["info"] = info


RUNNERS = {
    "paper-eval": paper_eval,
    "campaign-1000": campaigns,
    "memfault": campaigns,
    "service": service,
}


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        task = json.load(fh)
    part = Part(task)
    runner = extras if task["part"] == "extras" else RUNNERS[task["workload"]]
    runner(part, task["part"])
    layers.write_json(task["out"], part.finish())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
