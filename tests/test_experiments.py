"""Experiment-driver tests on a reduced scope (2 workloads, few trials)."""

import pytest

from repro.experiments import (
    ExperimentCache,
    ExperimentSettings,
    crossval,
    false_positives,
    figure2,
    figure10,
    figure11,
    figure12,
    figure13,
    summary,
    tables,
)


@pytest.fixture(scope="module")
def cache():
    settings = ExperimentSettings(trials=6, workloads=("g721dec", "kmeans"))
    return ExperimentCache(settings)


class TestRunnerCache:
    def test_prepared_memoised(self, cache):
        a = cache.prepared("g721dec", "original")
        b = cache.prepared("g721dec", "original")
        assert a is b

    def test_campaign_memoised(self, cache):
        a = cache.campaign("g721dec", "original")
        b = cache.campaign("g721dec", "original")
        assert a is b
        assert a.num_trials == 6

    def test_runtime_overheads_positive(self, cache):
        assert cache.overhead("g721dec", "dup") > 0
        assert cache.overhead("g721dec", "full_dup") > cache.overhead("g721dec", "dup")

    def test_trials_env_override(self, monkeypatch):
        from repro import settings

        def trials():
            return settings.resolve(ExperimentSettings()).trials

        monkeypatch.setattr(settings, "_warned", set())
        monkeypatch.setenv("REPRO_TRIALS", "123")
        assert trials() == 123
        monkeypatch.setenv("REPRO_TRIALS", "junk")
        with pytest.warns(RuntimeWarning, match="REPRO_TRIALS"):
            assert trials() == 60
        assert settings.resolve(ExperimentSettings(trials=5)).trials == 5


class TestFigureDrivers:
    def test_figure2(self, cache):
        rows = figure2.compute(cache)
        assert [r.benchmark for r in rows] == ["g721dec", "kmeans", "average"]
        for r in rows:
            assert 0 <= r.sdc <= 1
            assert r.usdc_large + r.usdc_small + r.asdc == pytest.approx(r.sdc)
        assert "Figure 2" in figure2.report(cache)

    def test_figure10(self, cache):
        rows = figure10.compute(cache)
        assert all(r.static_instructions > 0 for r in rows)
        assert all(0 < r.frac_duplicated < 1 for r in rows)
        assert "Figure 10" in figure10.report(cache)

    def test_figure11(self, cache):
        rows = figure11.compute(cache)
        schemes = {r.scheme for r in rows}
        assert schemes == {"original", "dup", "dup_valchk"}
        for r in rows:
            total = r.masked + r.swdetect + r.hwdetect + r.failure + r.usdc
            assert total == pytest.approx(1.0)
        avgs = figure11.averages(cache)
        assert set(avgs) == schemes

    def test_figure12(self, cache):
        rows = figure12.compute(cache)
        avg = next(r for r in rows if r.benchmark == "average")
        assert avg.dup < avg.full_dup
        assert "Figure 12" in figure12.report(cache)

    def test_figure13(self, cache):
        rows = figure13.compute(cache)
        for r in rows:
            assert r.sdc == pytest.approx(r.asdc + r.usdc)
        assert "Figure 13" in figure13.report(cache)

    def test_false_positives(self, cache):
        rows = false_positives.compute(cache)
        assert all(r.guard_evaluations > 0 for r in rows)
        agg = false_positives.aggregate_instructions_per_failure(rows)
        assert agg > 0
        assert "False positives" in false_positives.report(cache)

    def test_crossval(self, cache):
        rows = crossval.compute(cache)
        # only kmeans (of the fixture's two) is a crossval benchmark
        assert {r.benchmark for r in rows} == {"kmeans"}
        deltas = crossval.mean_deltas(rows)
        assert all(0 <= v <= 1 for v in deltas.values())
        assert "cross-validation" in crossval.report(cache)

    def test_summary(self, cache):
        rows = summary.compute(cache)
        metrics = {r.metric for r in rows}
        assert any("overhead" in m for m in metrics)
        assert any("USDC" in m for m in metrics)
        assert "paper" in summary.report(cache)

    def test_tables(self):
        assert "jpegenc" in tables.table1_report()
        assert "Reorder Buffer" in tables.table2_report()


class TestCLI:
    def test_main_runs_tables(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure99"])
