"""Per-layer spans and metrics for the ledger's traced run.

The traced run measures each layer from the benchmark's side: it wraps the
public entry points of ``repro.frontend``, ``repro.profiling``,
``repro.transforms``, ``repro.faultinjection``, ``repro.sim``,
``repro.experiments`` and the ``repro.serve`` client, records one span per
call, and keeps the spans in memory until the repetition ends.  They are
then written once as Chrome trace-event JSON, and self time comes from
:func:`repro.obs.trace.summarize_trace`.  Counts the program already keeps
come from its metrics registry (:func:`repro.obs.metrics.enable_global`).

Nothing here is imported by an untraced repetition.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: reports of ``python -m repro.experiments all``, in its order
REPORTS = (
    "table1", "table2", "figure2", "figure10", "figure11", "figure12",
    "figure13", "false_positives", "crossval", "recovery", "summary",
)

OUTCOMES = ("Masked", "SWDetect", "HWDetect", "Failure", "USDC")

#: benchmarks and layers of the speed-layer ablations (best-of-3 pairs)
ABLATION_BENCHMARKS = ("g721dec", "jpegdec", "segm")
ABLATION_LAYERS = ("fastpath", "snapshot", "triage", "batched", "parallel")
STACK_FRAME_BENCHMARKS = ("g721dec", "jpegdec")

#: every per-layer metric the traced run emits: (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("faultinjection.prepare_s", "s", "lower"),
    ("faultinjection.prepare_calls", "count", "lower"),
    ("frontend.build_module_s", "s", "lower"),
    ("profiling.collect_profiles_s", "s", "lower"),
    ("transforms.apply_scheme_s", "s", "lower"),
    ("sim.golden_run_s", "s", "lower"),
    ("sim.capture_run_s", "s", "lower"),
    ("sim.timing_run_s", "s", "lower"),
    ("sim.snapshots_stored", "count", "lower"),
    ("faultinjection.trials", "count", "lower"),
    ("faultinjection.trial_s", "s", "lower"),
    *((f"faultinjection.trial_s.{o}", "s", "lower") for o in OUTCOMES),
    ("sim.instructions", "count", "lower"),
    ("sim.ns_per_instruction", "ns", "lower"),
    ("snapshot.restores", "count", "higher"),
    ("snapshot.replay_cycles_saved", "count", "higher"),
    ("snapshot.saved_fraction", "fraction", "higher"),
    ("triage.masked", "count", "higher"),
    ("triage.masked_share", "fraction", "higher"),
    ("triage.dead_memory", "count", "higher"),
    ("triage.dead_memory_share", "fraction", "higher"),
    ("memfault.dead_region_skips", "count", "higher"),
    *((f"experiments.{r}_s", "s", "lower") for r in REPORTS),
    ("faultinjection.recovery_s", "s", "lower"),
    ("faultinjection.recovery_calls", "count", "lower"),
    ("diskcache.key_s", "s", "lower"),
    ("diskcache.get_s", "s", "lower"),
    ("diskcache.put_s", "s", "lower"),
    ("diskcache.hit", "count", "higher"),
    ("diskcache.miss", "count", "lower"),
    ("diskcache.write", "count", "lower"),
    ("diskcache.hit_ratio", "fraction", "higher"),
    ("serve.admit_wait_p50_s", "s", "lower"),
    ("serve.admit_wait_p90_s", "s", "lower"),
    ("serve.queue_wait_p50_s", "s", "lower"),
    ("serve.queue_wait_p90_s", "s", "lower"),
    ("serve.exec_p50_s", "s", "lower"),
    ("serve.exec_p90_s", "s", "lower"),
    ("serve.dedup_p50_s", "s", "lower"),
    ("serve.dedup_p90_s", "s", "lower"),
    ("serve.client_poll_s", "s", "lower"),
    ("serve.journal_bytes", "bytes", "lower"),
    ("serve.executions", "count", "lower"),
    ("serve.deduped", "count", "higher"),
    ("obs.event_log_overhead_pct", "%", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.span_coverage", "fraction", "higher"),
    *((f"ablation.{layer}_speedup.{b}", "x", "higher")
      for layer in ABLATION_LAYERS for b in ABLATION_BENCHMARKS),
    *((f"ablation.batched_speedup_stack_frame.{b}", "x", "higher")
      for b in STACK_FRAME_BENCHMARKS),
)

PER_LAYER_NAMES = tuple(name for name, _, _ in PER_LAYER)


def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated percentile (0 for an empty list); q=50 is the
    median."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class LayerTrace:
    """Spans around the layers' entry points, kept in memory.

    ``install`` patches module and class attributes and ``uninstall`` puts
    the originals back.  Patching the attribute a caller looks up at call
    time is what catches every call: the experiments runner and the
    campaign module bind ``prepare``, ``run_campaign``, ``campaign_key``,
    ``collect_profiles``, ``apply_scheme`` and ``run_with_recovery`` by
    name, so those bindings are patched where they live.
    """

    def __init__(self, path: str) -> None:
        from repro.obs.trace import Tracer

        self.path = path
        self.tracer = Tracer(path)
        #: bench-side tallies the spans cannot carry
        self.counts: Dict[str, float] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def span(self, name: str, cat: str = "bench"):
        return self.tracer.span(name, cat=cat)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, cat: str, name: str,
               after: Optional[Callable] = None) -> None:
        """Record a span per call; ``after(result, seconds)`` sees each
        call that returned."""
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.add_complete(name, cat, start, end)
            if after is not None:
                after(result, (end - start) / 1e9)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> "LayerTrace":
        from repro.experiments import recovery_analysis, runner
        from repro.faultinjection import campaign, diskcache
        from repro.obs.metrics import enable_global
        from repro.serve import client
        from repro.workloads.base import Workload

        enable_global()

        def prepared(result, _seconds) -> None:
            self.add("snapshots", len(result.snapshots or ()))

        def trial_done(trial, seconds) -> None:
            self.add(f"trial_s.{trial.outcome.value}", seconds)
            self.add(f"outcome.{trial.outcome.value}", 1)

        for owner in (campaign, runner):
            self._patch(owner, "prepare", "faultinjection", "prepare",
                        prepared)
            self._patch(owner, "run_campaign", "faultinjection",
                        "run_campaign")
        for owner in (diskcache, runner):
            self._patch(owner, "campaign_key", "diskcache", "campaign_key")
        self._patch(diskcache.CampaignCache, "get_entry", "diskcache",
                    "get_entry")
        self._patch(diskcache.CampaignCache, "put", "diskcache", "put")
        self._patch(campaign, "collect_profiles", "profiling",
                    "collect_profiles")
        self._patch(campaign, "apply_scheme", "transforms", "apply_scheme")
        self._patch(recovery_analysis, "run_with_recovery", "faultinjection",
                    "run_with_recovery")
        self._patch(runner.ExperimentCache, "runtime_cycles", "experiments",
                    "runtime_cycles")
        self._patch(Workload, "build_module", "frontend", "build_module")
        self._patch(client, "submit_to_inbox", "serve", "submit_to_inbox")
        self._patch(client, "wait_for_terminal", "serve", "wait_for_terminal")
        self._patch(client, "load_queue_state", "serve", "load_queue_state")
        # Resilience looks run_trial up on the module for every trial.
        self._patch(campaign, "run_trial", "faultinjection", "run_trial",
                    trial_done)
        self._patch_run(Workload)
        return self

    def _patch_run(self, workload_cls) -> None:
        """``Workload.run``, split by context into golden, capture, trial
        and timing runs; trial runs also count the cycles they simulated."""
        original = workload_cls.run
        tracer = self.tracer

        @functools.wraps(original)
        def run(workload, module, inputs, interpreter=None, config=None,
                **kwargs):
            if "injection" in kwargs:
                name = "trial_run"
            elif "capture" in kwargs:
                name = "capture_run"
            elif interpreter is not None and interpreter.timing is not None:
                name = "timing_run"
            else:
                name = "golden_run"
            try:
                with tracer.span(name, cat="sim"):
                    return original(workload, module, inputs, interpreter,
                                    config, **kwargs)
            finally:
                if name == "trial_run" and interpreter is not None:
                    self.add("trial_cycles", interpreter.cycle)

        workload_cls.run = run
        self._undo.append((workload_cls, "run", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def export(self) -> Dict:
        """Write the trace once and return its summary as plain data."""
        from repro.obs.trace import load_trace, summarize_trace

        self.tracer.export()
        summary = summarize_trace(load_trace(self.path))
        phases = {
            f"{cat}:{name}": dict(stats)
            for (cat, name), stats in summary.phases.items()
        }
        return {"phases": phases, "root_us": _root_coverage(self.path)}


def _root_coverage(path: str) -> Tuple[int, int]:
    """Microseconds of the ``bench:workload`` root spans covered by their
    direct children (the layer spans the workload called into), and the
    roots' total."""
    from repro.obs.trace import load_trace

    events = [
        e for e in load_trace(path).get("traceEvents", [])
        if e.get("ph") == "X"
    ]
    roots = [e for e in events if e.get("cat") == "bench"
             and e.get("name") == "workload"]
    total = covered = 0
    for root in roots:
        start, end = root["ts"], root["ts"] + root["dur"]
        track = (root["pid"], root["tid"])
        children = sorted(
            (e for e in events if e is not root
             and (e["pid"], e["tid"]) == track
             and start <= e["ts"] and e["ts"] + e["dur"] <= end),
            key=lambda e: e["ts"],
        )
        reach = start
        for child in children:
            child_end = child["ts"] + child["dur"]
            if child_end > reach:
                covered += child_end - max(reach, child["ts"])
                reach = child_end
        total += root["dur"]
    return covered, total


def registry_counts() -> Dict[str, int]:
    """Counter values of the program's metrics registry."""
    from repro.obs.metrics import global_registry

    snapshot = global_registry().snapshot()
    return {k: v for k, v in snapshot.items() if isinstance(v, int)}


def hit_ratio(registry: Dict[str, int]) -> float:
    """Disk-cache hits over lookups (0 when the cache was not consulted)."""
    hits, misses = registry.get("cache.hit", 0), registry.get("cache.miss", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def derive(trace: Dict, counts: Dict[str, float],
           registry: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (names in PER_LAYER)."""
    phases = trace["phases"]

    def seconds(key: str) -> float:
        return phases.get(key, {}).get("total_us", 0) / 1e6

    def calls(key: str) -> int:
        return phases.get(key, {}).get("count", 0)

    out: Dict[str, float] = {
        "faultinjection.prepare_s": seconds("faultinjection:prepare"),
        "faultinjection.prepare_calls": calls("faultinjection:prepare"),
        "frontend.build_module_s": seconds("frontend:build_module"),
        "profiling.collect_profiles_s": seconds("profiling:collect_profiles"),
        "transforms.apply_scheme_s": seconds("transforms:apply_scheme"),
        "sim.golden_run_s": seconds("sim:golden_run"),
        "sim.capture_run_s": seconds("sim:capture_run"),
        "sim.timing_run_s": seconds("sim:timing_run"),
        "sim.snapshots_stored": counts.get("snapshots", 0),
        "faultinjection.trials": calls("faultinjection:run_trial"),
        "faultinjection.trial_s": seconds("faultinjection:run_trial"),
        "faultinjection.recovery_s": seconds(
            "faultinjection:run_with_recovery"),
        "faultinjection.recovery_calls": calls(
            "faultinjection:run_with_recovery"),
        "diskcache.key_s": seconds("diskcache:campaign_key"),
        "diskcache.get_s": seconds("diskcache:get_entry"),
        "diskcache.put_s": seconds("diskcache:put"),
        "diskcache.hit": registry.get("cache.hit", 0),
        "diskcache.miss": registry.get("cache.miss", 0),
        "diskcache.write": registry.get("cache.write", 0),
        "serve.client_poll_s": seconds("serve:load_queue_state"),
    }
    covered, total = trace["root_us"]
    out["bench.span_coverage"] = covered / total if total else 0.0
    for outcome in OUTCOMES:
        out[f"faultinjection.trial_s.{outcome}"] = counts.get(
            f"trial_s.{outcome}", 0.0
        )
    for report in REPORTS:
        out[f"experiments.{report}_s"] = seconds(f"experiments:{report}")

    saved = registry.get("snapshot.replay_cycles_saved", 0)
    executed = max(0, counts.get("trial_cycles", 0) - saved)
    out["sim.instructions"] = executed
    out["sim.ns_per_instruction"] = (
        out["faultinjection.trial_s"] * 1e9 / executed if executed else 0.0
    )
    out["snapshot.restores"] = registry.get("snapshot.restores", 0)
    out["snapshot.replay_cycles_saved"] = saved
    out["snapshot.saved_fraction"] = (
        saved / (saved + executed) if saved + executed else 0.0
    )
    masked = counts.get("outcome.Masked", 0)
    out["triage.masked"] = registry.get("campaign.triaged_masked", 0)
    out["triage.dead_memory"] = registry.get("campaign.triaged_dead_memory", 0)
    out["triage.masked_share"] = out["triage.masked"] / masked if masked else 0.0
    out["triage.dead_memory_share"] = (
        out["triage.dead_memory"] / masked if masked else 0.0
    )
    out["memfault.dead_region_skips"] = registry.get(
        "memfault.dead_region_skips", 0
    )
    return out


def serve_layers(journal_path: str, submitted: Dict[str, float],
                 dedup_latencies: List[float]) -> Dict[str, float]:
    """Service waits from the journal's ``ts`` fields.

    ``submitted`` maps job id to the client's wall-clock submit time.
    Admit wait is submit to the admission record, queue wait admission to
    ``start``, and exec ``start`` to ``done``.
    """
    from repro.serve.journal import read_journal

    records, _ = read_journal(journal_path)
    admitted: Dict[str, float] = {}
    started: Dict[str, float] = {}
    admit, queue, execute = [], [], []
    deduped = executions = 0
    for record in records:
        kind, job, ts = record.get("type"), record.get("job"), record.get("ts")
        if kind in ("submit", "dedup", "shed"):
            admitted[job] = ts
            if job in submitted:
                admit.append(max(0.0, ts - submitted[job]))
            deduped += int(kind == "dedup")
        elif kind == "start":
            executions += 1
            started[job] = ts
            if job in admitted:
                queue.append(ts - admitted[job])
        elif kind == "done" and job in started:
            execute.append(ts - started[job])
    return {
        "serve.admit_wait_p50_s": percentile(admit, 50),
        "serve.admit_wait_p90_s": percentile(admit, 90),
        "serve.queue_wait_p50_s": percentile(queue, 50),
        "serve.queue_wait_p90_s": percentile(queue, 90),
        "serve.exec_p50_s": percentile(execute, 50),
        "serve.exec_p90_s": percentile(execute, 90),
        "serve.dedup_p50_s": percentile(dedup_latencies, 50),
        "serve.dedup_p90_s": percentile(dedup_latencies, 90),
        "serve.journal_bytes": os.path.getsize(journal_path),
        "serve.executions": executions,
        "serve.deduped": deduped,
    }


def write_json(path: str, document) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
