"""Metrics registry: counters, disabled null path, global registry."""

from __future__ import annotations

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    MetricsRegistry,
    enable_global,
    global_registry,
    reset_global,
)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def test_counter_increments():
    reg = MetricsRegistry()
    c = reg.counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert reg.counter("x") is c  # memoised by name
    assert reg.snapshot()["x"] == 5


# ---------------------------------------------------------------------------
# disabled registries are null
# ---------------------------------------------------------------------------


def test_disabled_registry_hands_out_null_instruments():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("a")
    c.inc(100)
    assert reg.snapshot() == {}
    # every name shares the one null counter
    assert reg.counter("a") is reg.counter("b") is c


def test_reset_clears_instruments():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.reset()
    assert reg.snapshot() == {}


# ---------------------------------------------------------------------------
# global registry
# ---------------------------------------------------------------------------


def test_global_registry_follows_env(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    reset_global()
    assert not global_registry().enabled
    monkeypatch.setenv("REPRO_OBS", "/tmp/some.jsonl")
    reset_global()
    assert global_registry().enabled
    reset_global()


def test_enable_global_forces_on(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    reset_global()
    reg = enable_global()
    assert reg.enabled and global_registry() is reg
    reg.counter("x").inc()
    assert reg.snapshot()["x"] == 1
    reset_global()


@pytest.fixture(autouse=True)
def _restore_global():
    yield
    metrics.reset_global()
