"""Report aggregation and the ``python -m repro.obs report`` CLI."""

from __future__ import annotations

import gzip
import json

import pytest

from repro.durable import AppendLog
from repro.obs.__main__ import main as obs_main
from repro.obs.events import SCHEMA_VERSION
from repro.obs.report import LogReport, percentile


def _write_synthetic_log(path):
    """Two-campaign log with known outcomes, latencies, and check fires."""
    with AppendLog(path) as w:
        w.append({"event": "campaign_begin", "v": SCHEMA_VERSION,
                  "workload": "w1", "scheme": "dup",
                  "golden_instructions": 1000,
                  "golden_guard_failures": 0, "golden_guard_evaluations": 10})
        trials = [
            # (outcome, bit, register, function, latency, check)
            ("Masked", 0, "a", "main", None, None),
            ("Masked", 1, "a", "main", None, None),
            ("SWDetect", 2, "b", "main", 10, 1),
            ("SWDetect", 3, "b", "helper", 30, 1),
            ("SWDetect", 4, "c", "helper", 20, 2),
            ("HWDetect", 5, "c", "main", 500, None),
            ("Failure", 6, "d", "main", None, None),
            ("USDC", 7, "d", "main", None, None),
        ]
        for i, (outcome, bit, reg, fn, latency, check) in enumerate(trials):
            w.append({
                "event": "trial", "v": SCHEMA_VERSION, "i": i,
                "cycle": 100 + i, "bit": bit, "seed": i,
                "outcome": outcome, "landed": True, "live": outcome != "Masked",
                "register": reg, "function": fn,
                "event_cycle": (100 + i + latency) if latency else None,
                "latency": latency, "check": check,
                "check_kind": "eq" if check else "",
                "trap": "guard" if outcome == "SWDetect" else "",
                "fidelity": None, "sdc": outcome == "USDC",
                "asdc": False, "magnitude": 0.0,
            })
        w.append({"event": "campaign_end", "v": SCHEMA_VERSION,
                  "workload": "w1", "scheme": "dup", "trials": len(trials),
                  "counts": {"Masked": 2, "SWDetect": 3, "HWDetect": 1,
                             "Failure": 1, "USDC": 1}})
        w.append({"event": "cache_hit", "v": SCHEMA_VERSION,
                  "workload": "w2", "scheme": "full_dup", "key": "f" * 64,
                  "meta": {"created_iso": "2026-08-06T00:00:00Z", "trials": 60}})


# ---------------------------------------------------------------------------
# percentile helper
# ---------------------------------------------------------------------------


def test_percentile_nearest_rank():
    values = [10, 20, 30, 40, 50]
    assert percentile(values, 0.5) == 30
    assert percentile(values, 0.0) == 10
    assert percentile(values, 1.0) == 50
    assert percentile([7], 0.9) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_report_aggregates_outcomes_latency_and_checks(tmp_path):
    log = tmp_path / "log.jsonl"
    _write_synthetic_log(log)
    report = LogReport.from_paths([log])

    assert report.trials == 8
    assert len(report.campaigns) == 1
    assert len(report.cache_hits) == 1
    assert report.outcome_counts["Masked"] == 2
    assert report.outcome_counts["SWDetect"] == 3
    assert sorted(report.sw_latencies) == [10, 20, 30]
    assert report.hw_latencies == [500]
    # check 1 fired twice, check 2 once
    assert report.check_fires[1][0] == 2
    assert report.check_fires[2][0] == 1

    data = report.to_json()
    assert data["detection_latency"]["swdetect"]["p50"] == 20
    assert data["detection_latency"]["hwdetect"]["count"] == 1
    assert data["checks"]["1"]["share_of_swdetect"] == pytest.approx(2 / 3)
    assert data["by_function"]["main"]["Masked"] == 2
    assert data["by_bit"]["00"]["Masked"] == 1
    assert data["schema_versions"] == [SCHEMA_VERSION]


def test_report_merges_multiple_logs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_synthetic_log(a)
    _write_synthetic_log(b)
    report = LogReport.from_paths([a, b])
    assert report.trials == 16
    assert len(report.campaigns) == 2


def test_report_counts_corrupt_lines(tmp_path):
    log = tmp_path / "log.jsonl"
    _write_synthetic_log(log)
    with open(log, "a") as fh:
        fh.write("{broken\n")
    report = LogReport.from_paths([log])
    assert report.skipped_lines == 1
    assert "corrupt lines skipped: 1" in report.render_text()


def test_report_counts_gzip_lines_as_skipped(tmp_path):
    """Logs are plain JSONL only: a gzip-compressed one is read as garbled
    lines, counted and skipped, never a decompression error."""
    plain = tmp_path / "log.jsonl"
    _write_synthetic_log(plain)
    compressed = gzip.compress(plain.read_bytes(), mtime=0)
    log = tmp_path / "log.jsonl.gz"
    log.write_bytes(compressed)
    out = tmp_path / "report.json"
    assert obs_main(["report", str(log), "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    lines = compressed.split(b"\n")[:-1]  # the last one has no newline
    assert data["skipped_lines"] == sum(1 for line in lines if line.strip())
    assert data["trials"] == 0


def test_render_text_contains_key_sections(tmp_path):
    log = tmp_path / "log.jsonl"
    _write_synthetic_log(log)
    text = LogReport.from_paths([log]).render_text()
    assert "w1/dup" in text
    assert "served from cache" in text
    assert "per-check effectiveness" in text
    assert "by bit position" in text
    assert "by register" in text
    assert "by function" in text
    assert "p50=20" in text  # sw latency median


def test_render_text_empty_log(tmp_path):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    text = LogReport.from_paths([log]).render_text()
    assert "no trial events found" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_report_text_and_json(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    out = tmp_path / "report.json"
    _write_synthetic_log(log)
    assert obs_main(["report", str(log), "--json", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "campaign trial log report" in captured
    data = json.loads(out.read_text())
    assert data["trials"] == 8
    assert data["outcomes"]["SWDetect"] == 3


def test_cli_report_json_to_stdout(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    _write_synthetic_log(log)
    assert obs_main(["report", str(log), "--json", "-"]) == 0
    captured = capsys.readouterr().out
    assert '"trials": 8' in captured


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_report_unreadable_log_exits_1(tmp_path, capsys, kind):
    """A log the report cannot open is one line on stderr and exit 1, as an
    unreadable ``--trace`` is, not a traceback."""
    log = tmp_path / "log.jsonl"
    if kind == "directory":
        log.mkdir()
    assert obs_main(["report", str(log)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"report: cannot read log {log}: ")
    assert captured.out == ""
