"""Tests for the fault-injection CLI (python -m repro.faultinjection)."""

import json

import pytest

from repro.faultinjection.__main__ import main


class TestFiCli:
    def test_campaign_summary_printed(self, capsys):
        assert main(["tiff2bw", "dup", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "tiff2bw [dup] — 5 trials" in out
        assert "Masked" in out and "coverage" in out
        assert "false positives" in out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert main(["tiff2bw", "original", "--trials", "4",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["workload"] == "tiff2bw"
        assert len(data["records"]) == 4

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["tiff2bw", "tmr"])

    def test_swap_inputs_flag(self, capsys):
        assert main(["tiff2bw", "original", "--trials", "3",
                     "--swap-inputs"]) == 0
        assert "3 trials" in capsys.readouterr().out

    def test_rejects_trials_below_one(self, capsys):
        for trials in ("0", "-3"):
            with pytest.raises(SystemExit) as exit_info:
                main(["tiff2bw", "original", "--trials", trials])
            assert exit_info.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"trials must be at least 1, got {trials}" in err

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_reports_the_trace_it_wrote(self, tmp_path, monkeypatch, capsys,
                                        via):
        # REPRO_TRACE and --trace resolve to the same setting, so the
        # closing message names the trace file either way.
        path = tmp_path / "t.json"
        argv = ["tiff2bw", "original", "--trials", "3", "--quiet"]
        if via == "flag":
            argv += ["--trace", str(path)]
        else:
            monkeypatch.setenv("REPRO_TRACE", str(path))
        assert main(argv) == 0
        assert path.exists()
        assert f"span trace exported to {path}" in capsys.readouterr().out
