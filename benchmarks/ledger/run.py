#!/usr/bin/env python3
"""Performance ledger: end-to-end and per-layer metrics of the reproduction.

Usage::

    python benchmarks/ledger/run.py [--workloads a,b] [--seed N] [--repeat N]
                                    [--seconds S] [--traced] [--output F]
    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S \\
                                    --trace 0|1
    python benchmarks/ledger/run.py --smoke
    python benchmarks/ledger/run.py --stability A.json B.json

Every repetition of a workload runs in fresh child processes (``child.py``)
with every ``REPRO_*`` variable scrubbed, and the workloads take turns
round-robin.  Outputs are checked before anything is reported: repetitions
must agree with each other, sampled results must match a reference run, and
for a seed with committed expectations (``expected/``) the outputs must
match those exactly.  A mismatch exits 1 and reports no metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``.  README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
EXPECTED = HERE / "expected"

WORKLOADS = ("paper-eval", "campaign-1000", "memfault", "service")

#: end-to-end metrics: (name, unit, regression bound as a share of the
#: median).  BENCHMARK.json carries the same table.  The time bounds are the
#: 0.25 maximum because a shared two-core host drifts in CPU speed by up to
#: 20% over minutes: ten runs of one workload spread by 0.06-0.18 there.  No
#: workload has enough operations per run for a tail percentile with ten
#: samples beyond it, so operation latency is reported as its median only.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
    ("op_p50_s", "s", 0.25),
)

#: each repetition's own settings, on top of the scrubbed environment
WORKLOAD_ENV = {
    "paper-eval": {},
    "campaign-1000": {"REPRO_CACHE": "0"},
    "memfault": {"REPRO_CACHE": "0"},
    "service": {},
}

_MEMFAULT = [
    [wl, "dup_valchk", model]
    for wl in ("g721dec", "jpegdec")
    for model in ("mem_transient", "cache_line", "stack_frame")
]

#: workload sizes.  ``full`` is what BENCHMARK.json measures; ``smoke``
#: runs every code path at toy size.
SCALES = {
    "full": {
        "paper-eval": {
            "benchmarks": ["tiff2bw", "g721dec", "jpegdec"], "trials": 60,
            "warm_reports": ["figure2", "figure11", "figure13", "crossval",
                             "summary"],
        },
        "campaign-1000": {
            "campaigns": [["g721dec", s, "single_bit"] for s in
                          ("original", "dup", "dup_valchk", "full_dup")],
            "trials": 1000, "verify_trials": 2,
        },
        "memfault": {"campaigns": _MEMFAULT, "trials": 200,
                     "verify_trials": 2},
        "service": {"fresh": 24, "repeats": 24, "trials": 40, "clients": 2,
                    "workers": 2, "verify_results": 3},
        "extras": {
            "campaign-1000": {"trials": 200, "slow_trials": 20,
                              "rounds": 3},
            "memfault": {"trials": 300, "rounds": 3},
            "service": {"trials": 200, "rounds": 3},
        },
    },
    "smoke": {
        "paper-eval": {
            "benchmarks": ["tiff2bw"], "trials": 4,
            "warm_reports": ["figure2", "figure11", "figure13", "crossval",
                             "summary"],
        },
        "campaign-1000": {
            "campaigns": [["g721dec", "original", "single_bit"],
                          ["g721dec", "dup_valchk", "single_bit"]],
            "trials": 20, "verify_trials": 1,
        },
        "memfault": {"campaigns": _MEMFAULT[:3], "trials": 12,
                     "verify_trials": 1},
        "service": {"fresh": 4, "repeats": 3, "trials": 4, "clients": 2,
                    "workers": 2, "verify_results": 1},
        "extras": {
            "campaign-1000": {"trials": 8, "slow_trials": 2,
                              "rounds": 1},
            "memfault": {"trials": 8, "rounds": 1},
            "service": {"trials": 8, "rounds": 1},
        },
    },
}

#: a run started with --seconds ends within 180 s, hung children included
SECONDS_MODE_DEADLINE = 165.0
CHILD_TIMEOUT = 900.0
MIN_SETUPS = 5


class LedgerError(Exception):
    """The harness could not measure (as opposed to a wrong output)."""


# -- statistics -------------------------------------------------------------


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


# -- child processes ----------------------------------------------------------


def child_env(workload: str, rep_dir: Path) -> Dict[str, str]:
    """The scrubbed environment plus the workload's own settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        # One hash seed for every process: per-process hash randomisation
        # moves interpreter timings by several percent between processes.
        PYTHONHASHSEED="0",
        TMPDIR=str(rep_dir / "tmp"),
        REPRO_CACHE_DIR=str(rep_dir / "cache"),
    )
    env.update(WORKLOAD_ENV[workload])
    return env


def spawn(task: Dict, rep_dir: Path, deadline: float) -> Dict:
    """Run one child process to completion and return its result document,
    with ``peak_rss_mb`` from the rusage of its process tree."""
    name = task["part"]
    task_path = rep_dir / f"{name}.task.json"
    task.update(out=str(rep_dir / f"{name}.result.json"), work=str(rep_dir))
    (rep_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env(task["workload"], rep_dir)
    task["spawned"] = time.monotonic()
    task_path.write_text(json.dumps(task))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(task_path)],
        env=env, cwd=str(ROOT), stdout=sys.stderr, start_new_session=True,
    )
    timeout = max(1.0, min(CHILD_TIMEOUT, deadline - time.monotonic()))
    timer = threading.Timer(timeout, _kill_group, args=(proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _kill_group(proc.pid)
        raise LedgerError(
            f"{task['workload']} {name} child exited with "
            f"{proc.returncode}" + (" (timed out)" if proc.returncode < 0
                                    else "")
        )
    result = json.loads(Path(task["out"]).read_text())
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


# -- repetitions --------------------------------------------------------------


class Ledger:
    """Runs repetitions and collects their samples, per workload."""

    def __init__(self, args, workloads: List[str], work: Path) -> None:
        self.args = args
        self.work = work
        self.scale = SCALES[args.scale]
        self.workloads = workloads
        self.seed = args.seed
        self.deadline = (
            time.monotonic() + SECONDS_MODE_DEADLINE
            if args.seconds is not None else float("inf")
        )
        self.reps: Dict[str, List[Dict]] = {w: [] for w in workloads}
        self.traced: Dict[str, List[Dict]] = {w: [] for w in workloads}
        self.setups: Dict[str, List[float]] = {w: [] for w in workloads}
        self.extras: Dict[str, Dict] = {}
        self._count = 0

    def _rep_dir(self, workload: str) -> Path:
        self._count += 1
        path = self.work / f"{self._count:03d}-{workload}"
        path.mkdir(parents=True)
        return path

    def _task(self, workload: str, part: str, traced: bool = False,
              verify: bool = False, scale: Optional[Dict] = None) -> Dict:
        task = {
            "workload": workload, "part": part, "seed": self.seed,
            "scale": scale if scale is not None else self.scale[workload],
            "traced": traced, "verify": verify,
        }
        if traced:
            task["trace_path"] = str(
                self.work / f"trace-{self._count:03d}-{workload}-{part}.json")
        return task

    def repetition(self, workload: str, traced: bool = False) -> Dict:
        """One repetition: ``paper-eval`` is a cold process and then a warm
        one on the same cache directory; the others are one process."""
        rep_dir = self._rep_dir(workload)
        verify = not traced and not self.reps[workload]
        began = time.monotonic()
        if workload == "paper-eval":
            parts = [
                spawn(self._task(workload, name, traced), rep_dir,
                      self.deadline)
                for name in ("cold", "warm")
            ]
            sample = _paper_eval_sample(*parts)
        else:
            part = spawn(self._task(workload, "rep", traced, verify),
                         rep_dir, self.deadline)
            sample = _sample(part)
            parts = [part]
        sample["duration"] = time.monotonic() - began
        if traced:
            sample["layers"] = _rep_layers(workload, parts)
        else:
            self.setups[workload].extend(sample["setup_s"])
        shutil.rmtree(rep_dir / "cache", ignore_errors=True)
        return sample

    def _wants_more(self, workload: str, traced: bool = False) -> bool:
        """``--repeat`` counts repetitions; ``--seconds`` budgets the time
        spent in them, at least one, and never past the run's deadline."""
        done = (self.traced if traced else self.reps)[workload]
        if self.args.seconds is None:
            return len(done) < self.args.repeat
        if not done:
            return True
        spent = self.reps[workload] + self.traced[workload]
        if time.monotonic() + spent[-1]["duration"] > self.deadline:
            return False
        return sum(s["duration"] for s in spent) < self.args.seconds

    def measure(self) -> None:
        """Untraced repetitions, round-robin across workloads."""
        while True:
            pending = [w for w in self.workloads if self._wants_more(w)]
            if not pending:
                break
            for workload in pending:
                self.reps[workload].append(self.repetition(workload))
        for workload in self.workloads:
            while len(self.setups[workload]) < MIN_SETUPS:
                rep_dir = self._rep_dir(workload)
                part = spawn(self._task(workload, "setup"), rep_dir,
                             self.deadline)
                self.setups[workload].append(part["setup_s"])

    def measure_traced(self) -> None:
        """Pairs of untraced and traced repetitions, then the extras."""
        while True:
            pending = [w for w in self.workloads
                       if self._wants_more(w, traced=True)]
            if not pending:
                break
            for workload in pending:
                self.reps[workload].append(self.repetition(workload))
                self.traced[workload].append(
                    self.repetition(workload, traced=True))
        for workload in self.workloads:
            scale = self.scale["extras"].get(workload)
            if scale is None:
                continue
            rep_dir = self._rep_dir(workload)
            self.extras[workload] = spawn(
                self._task(workload, "extras", scale=scale), rep_dir,
                self.deadline,
            )


def _sample(part: Dict) -> Dict:
    ops = part["ops"]
    return {
        "wall_s": part["wall_s"],
        "setup_s": [part["setup_s"]],
        "peak_rss_mb": part["peak_rss_mb"],
        "op_p50_s": layers.percentile(ops, 50),
        "attempted": part["attempted"],
        "failed": part["failed"],
        "digest": part["digest"],
        "problems": list(part["problems"]),
        "verified": {k: v for k, v in part.items()
                     if k.startswith("verified_")},
    }


def _paper_eval_sample(cold: Dict, warm: Dict) -> Dict:
    """The cold pass is the measured work; both passes' reports are ops,
    and every warm report must read exactly as its cold rendering."""
    sample = _sample(cold)
    sample.update(
        setup_s=[cold["setup_s"], warm["setup_s"]],
        peak_rss_mb=max(cold["peak_rss_mb"], warm["peak_rss_mb"]),
        op_p50_s=layers.percentile(cold["ops"] + warm["ops"], 50),
        attempted=cold["attempted"] + warm["attempted"],
        failed=cold["failed"] + warm["failed"],
        digest={**cold["digest"], **warm["digest"]},
        problems=cold["problems"] + warm["problems"],
    )
    for report, digest in warm["reports"].items():
        if digest != cold["reports"].get(report):
            sample["problems"].append(
                f"warm {report} differs from its cold rendering")
    return sample


def _rep_layers(workload: str, parts: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (all of its processes)."""
    raws = [p["raw_layers"] for p in parts]
    merged = {
        "phases": {}, "root_us": [0, 0], "counts": {}, "registry": {},
    }
    for raw in raws:
        for key, stats in raw["phases"].items():
            into = merged["phases"].setdefault(
                key, {"count": 0, "total_us": 0, "self_us": 0})
            for field in into:
                into[field] += stats[field]
        for i in (0, 1):
            merged["root_us"][i] += raw["root_us"][i]
        for bucket in ("counts", "registry"):
            for key, value in raw[bucket].items():
                merged[bucket][key] = merged[bucket].get(key, 0) + value
    values = layers.derive(merged, merged["counts"], merged["registry"])
    # The warm pass is where the disk cache should answer every campaign.
    values["diskcache.hit_ratio"] = layers.hit_ratio(raws[-1]["registry"])
    for part in parts:
        values.update(part.get("serve_layers", {}))
    return values


# -- checks -------------------------------------------------------------------


def expected_path(directory: Path, scale: str, seed: int) -> Path:
    return directory / f"{scale}-seed-{seed}.json"


def check(ledger: Ledger, workload: str, expected: Optional[Dict]) -> List[str]:
    """Every output check of one workload; returns the problems found.

    Traced repetitions are checked with the untraced ones, so tracing that
    changed an output would show as disagreeing repetitions.
    """
    samples = ledger.reps[workload] + ledger.traced[workload]
    problems = [p for s in samples for p in s["problems"]]
    problems += ledger.extras.get(workload, {}).get("problems", [])
    digests = {json.dumps(s["digest"], sort_keys=True) for s in samples}
    if len(digests) > 1:
        problems.append("repetitions disagree on their outputs")
    if expected is not None and workload in expected:
        if samples[0]["digest"] != expected[workload]:
            problems.append("outputs differ from the committed expectation "
                            f"for seed {ledger.seed}")
    if workload == "paper-eval":
        for sample in ledger.traced[workload]:
            if sample["layers"]["diskcache.hit_ratio"] != 1.0:
                problems.append("the warm pass missed the disk cache")
    return [f"{workload}: {p}" for p in problems]


# -- reporting ----------------------------------------------------------------


def e2e_samples(ledger: Ledger, workload: str) -> Dict[str, List[float]]:
    reps = ledger.reps[workload]
    out = {name: [s[name] for s in reps] for name, _, _ in END_TO_END
           if name != "setup_s"}
    out["setup_s"] = list(ledger.setups[workload])
    return out


def layer_values(ledger: Ledger, workload: str) -> Dict[str, float]:
    """Median of each per-layer metric over the traced repetitions, plus
    the extras; metrics a workload does not exercise read 0."""
    traced = ledger.traced[workload]
    values = {name: 0.0 for name in layers.PER_LAYER_NAMES}
    for name in layers.PER_LAYER_NAMES:
        measured = [s["layers"][name] for s in traced if name in s["layers"]]
        if measured:
            values[name] = statistics.median(measured)
    values.update(ledger.extras.get(workload, {}).get("layers", {}))
    untraced = statistics.median(s["wall_s"] for s in ledger.reps[workload])
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    values["bench.trace_overhead_pct"] = 100.0 * (traced_wall / untraced - 1)
    return values


def environment() -> Dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scrubbed": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def settings(ledger: Ledger, workload: str) -> Dict:
    env = {k: v for k, v in child_env(workload, Path("<rep>")).items()
           if k.startswith(("REPRO_", "PYTHON"))}
    env["PYTHONPATH"] = "<checkout>/src"
    return {"env": env, "scale": ledger.scale[workload], "jobs": 1}


def print_report(ledger: Ledger, doc: Dict) -> None:
    env = doc["environment"]
    print(f"ledger: seed {ledger.seed}, scale {ledger.args.scale}, "
          f"nproc {env['nproc']} ({env['cpu']}), python {env['python']}, "
          f"scrubbed {env['scrubbed'] or 'none'}")
    if ledger.args.traced:
        print(f"Chrome traces of the traced repetitions: {ledger.work}")
    for workload, entry in doc["workloads"].items():
        print(f"\n{workload}: {len(ledger.reps[workload])} repetitions, "
              f"{entry['attempted']} operations attempted, "
              f"{entry['failed']} failed, outputs {entry['expected']}")
        print(f"  settings: {json.dumps(entry['settings'], sort_keys=True)}")
        for name, stats in entry["summary"].items():
            print(f"  {name:<12} {stats['unit']:<3} median "
                  f"{stats['median']:10.4f}  q1 {stats['q1']:10.4f}  "
                  f"q3 {stats['q3']:10.4f}  n {stats['n']}")
        if "layers" in entry:
            print("  per layer (traced):")
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            for name, value in entry["layers"].items():
                if value:
                    print(f"    {name:<44} {value:14.6g} {units[name]}")
            for name, info in entry.get("layer_info", {}).items():
                print(f"    {name:<44} best {info['best']:.2f}x  "
                      f"pairs {info['min']:.2f}x..{info['max']:.2f}x")


def build_document(ledger: Ledger, traced: bool, expected_state: Dict) -> Dict:
    doc = {"ledger": 1, "seed": ledger.seed, "scale": ledger.args.scale,
           "environment": environment(), "workloads": {}}
    units = {name: unit for name, unit, _ in END_TO_END}
    for workload in ledger.workloads:
        samples = e2e_samples(ledger, workload)
        reps = ledger.reps[workload] + ledger.traced[workload]
        entry = {
            "settings": settings(ledger, workload),
            "expected": expected_state[workload],
            "attempted": sum(s["attempted"] for s in reps),
            "failed": sum(s["failed"] for s in reps),
            "samples": samples,
            "summary": {},
            "verified": [s["verified"] for s in ledger.reps[workload]
                         if s["verified"]],
        }
        for name, _, _ in END_TO_END:
            q1, median, q3 = quartiles(samples[name])
            entry["summary"][name] = {
                "unit": units[name], "median": median, "q1": q1, "q3": q3,
                "n": len(samples[name]),
            }
        if traced:
            entry["layers"] = layer_values(ledger, workload)
            entry["layer_info"] = ledger.extras.get(workload, {}).get(
                "info", {})
        doc["workloads"][workload] = entry
    return doc


def final_line(ledger: Ledger, doc: Dict, traced: bool,
               correct: bool) -> Dict:
    """The contract line: one workload's metrics by name, or, with several
    workloads, names prefixed by ``<workload>/``."""
    metrics = {}
    single = len(ledger.workloads) == 1
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    for workload, entry in doc["workloads"].items() if correct else ():
        prefix = "" if single else f"{workload}/"
        if traced:
            for name, value in entry["layers"].items():
                metrics[prefix + name] = {"value": value, "unit": units[name]}
        else:
            for name, stats in entry["summary"].items():
                metrics[prefix + name] = {"value": stats["median"],
                                          "unit": stats["unit"]}
    return {
        "correct": correct,
        "attempted": sum(e["attempted"] for e in doc["workloads"].values()),
        "failed": sum(e["failed"] for e in doc["workloads"].values()),
        "metrics": metrics,
    }


# -- --stability ----------------------------------------------------------------


def stability(path_a: str, path_b: str) -> int:
    """Compare two ledger outputs of the same code, metric by metric."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bounds = {name: bound for name, _, bound in END_TO_END}
    print(f"stability: {path_a} vs {path_b} (seed {a['seed']} vs "
          f"{b['seed']}, scale {a['scale']} vs {b['scale']})")
    print(f"{'workload':<14} {'metric':<12} {'median A':>10} {'median B':>10} "
          f"{'spread A':>9} {'spread B':>9} {'change':>8} {'bound':>6}  "
          "verdict")
    differ = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for name, bound in bounds.items():
            va = a["workloads"][workload]["samples"][name]
            vb = b["workloads"][workload]["samples"][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            change = (mb - ma) / ma if ma else 0.0
            if max(sa, sb) > bound:
                verdict = "unresolved"
            elif abs(change) <= bound:
                verdict = "agree"
            else:
                verdict = "differ"
                differ += 1
            print(f"{workload:<14} {name:<12} {ma:10.4f} {mb:10.4f} "
                  f"{sa:9.3f} {sb:9.3f} {change:+8.3f} {bound:6.2f}  "
                  f"{verdict}")
    return 1 if differ else 0


# -- --smoke ----------------------------------------------------------------------


def check_benchmark_json(doc: Dict) -> List[str]:
    """BENCHMARK.json must name what this harness emits."""
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    declared = [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]]
    if declared != [tuple(m) for m in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != list(layers.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
    for workload, entry in doc["workloads"].items():
        if list(entry.get("layers", {})) != list(layers.PER_LAYER_NAMES):
            problems.append(f"{workload}: emitted per-layer names differ")
    return problems


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python benchmarks/ledger/run.py",
        description="Performance ledger of the fault-injection engine.",
    )
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset of " + ", ".join(WORKLOADS))
    parser.add_argument("--workload", default=None,
                        help="one workload (same as --workloads NAME)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="repetitions per workload (default 3; ignored "
                             "with --seconds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for about this long")
    parser.add_argument("--traced", action="store_true",
                        help="the traced run: report per-layer metrics")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 is the same as --traced")
    parser.add_argument("--output", default=None, metavar="F",
                        help="write every sample and summary as JSON")
    parser.add_argument("--expected", default=str(EXPECTED), metavar="DIR",
                        help="directory of committed expected outputs")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's outputs as the expectation "
                             "for its scale and seed")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy scale, untraced and "
                             "traced, with names checked against "
                             "BENCHMARK.json")
    parser.add_argument("--stability", nargs=2, metavar=("A", "B"),
                        help="compare two --output files")
    args = parser.parse_args(argv)
    args.traced = args.traced or args.trace == 1
    args.scale = "smoke" if args.smoke else "full"
    if args.smoke:
        args.repeat, args.seconds = 1, None
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.stability:
        return stability(*args.stability)
    workloads = [w.strip() for w in (args.workload or args.workloads).split(",")]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        print(f"ledger: unknown workloads {unknown}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no program sources at {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    ledger = Ledger(args, workloads, work)
    traced = args.traced or args.smoke
    try:
        if traced:
            ledger.measure_traced()
        else:
            ledger.measure()
    except LedgerError as err:
        print(f"ledger: {err}", file=sys.stderr)
        return 2
    finally:
        if not args.traced:
            shutil.rmtree(work, ignore_errors=True)

    exp_path = expected_path(Path(args.expected), args.scale, args.seed)
    expected = json.loads(exp_path.read_text()) if exp_path.is_file() else None
    problems: List[str] = []
    expected_state = {}
    for workload in workloads:
        problems += check(ledger, workload, expected)
        known = expected is not None and workload in expected
        expected_state[workload] = "verified" if known else "unverified"

    doc = build_document(ledger, traced, expected_state)
    if args.smoke:
        problems += check_benchmark_json(doc)
    if args.write_expected and not problems:
        recorded = expected or {}
        for workload in workloads:
            recorded[workload] = ledger.reps[workload][0]["digest"]
        exp_path.parent.mkdir(parents=True, exist_ok=True)
        layers.write_json(str(exp_path), recorded)
    if args.output:
        doc["problems"] = problems
        layers.write_json(args.output, doc)
    correct = not problems
    if correct:
        print_report(ledger, doc)
    else:
        for problem in problems:
            print(f"ledger: MISMATCH {problem}", file=sys.stderr)
    print(json.dumps(final_line(ledger, doc, traced, correct)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
