"""Smoke test of the performance ledger.

Runs every workload at toy scale, untraced and traced, and checks the
emitted metric names against ``BENCHMARK.json``; then shows that a tampered
expectation fails the run.  From the repository root::

    python -m pytest benchmarks/ledger/test_smoke.py -q

It takes well under a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_emits_every_declared_metric():
    proc, line = _run("--smoke")
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    declared = {
        f"{workload['name']}/{metric['name']}"
        for workload in SPEC["workloads"] for metric in SPEC["per_layer"]
    }
    assert set(line["metrics"]) == declared


def test_tampered_expectation_fails_without_metrics(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(HERE / "expected", expected)
    path = expected / "smoke-seed-2014.json"
    doc = json.loads(path.read_text())
    label = next(iter(doc["memfault"]))
    doc["memfault"][label]["tallies"]["Masked"] += 1
    path.write_text(json.dumps(doc))

    proc, line = _run("--smoke", "--workloads", "memfault",
                      "--expected", str(expected))
    assert proc.returncode == 1
    assert line["correct"] is False and line["metrics"] == {}
    assert "committed expectation" in proc.stderr
