"""Lightweight counter registry: named, monotonically increasing counts.

The design goal is *near-zero overhead when disabled*: a disabled registry
hands out one shared null counter whose ``inc`` is a no-op one-liner, and
instrumented code holds the counter (not the registry), so the per-event
cost in the disabled configuration is a single no-op method call — cheap
enough to leave the instrumentation permanently threaded through the
campaign engine without perturbing the performance ledger's numbers.

The registry keeps only counts no other artifact records (snapshot
restores, triage verdicts, cache lookups, simulated instructions, recovery
actions).  Per-trial outcomes, detecting checks and detection latencies
live in the obs log (``python -m repro.obs report``), wall-clock time in
the ``--trace`` spans, and queue tallies in the service's ``state.json``.

The process-wide default registry (:func:`global_registry`) is enabled when
``REPRO_OBS`` is set (see :mod:`repro.settings`); library code records into
it, and :func:`enable_global`/:func:`reset_global` let tests and CLIs control
it explicitly.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import settings

__all__ = [
    "Counter",
    "MetricsRegistry",
    "enable_global",
    "global_registry",
    "reset_global",
]


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value


class _NullCounter:
    """Shared do-nothing counter handed out by disabled registries."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def snapshot(self):
        return None


_NULL = _NullCounter()


class MetricsRegistry:
    """Named counter store; disabled registries cost one no-op per event."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def snapshot(self) -> Dict[str, int]:
        """Current value of every counter, sorted by name."""
        return {name: self._counters[name].value
                for name in sorted(self._counters)}

    def reset(self) -> None:
        self._counters.clear()


_GLOBAL: Optional[MetricsRegistry] = None


def global_registry() -> MetricsRegistry:
    """Process-wide registry; enabled iff ``REPRO_OBS`` is set at first use."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = MetricsRegistry(enabled=bool(settings.OBS.read()))
    return _GLOBAL


def enable_global(enabled: bool = True) -> MetricsRegistry:
    """Force the global registry on/off (CLIs with ``--obs-log``, tests)."""
    registry = global_registry()
    registry.enabled = enabled
    return registry


def reset_global() -> None:
    """Drop the global registry so the next use re-reads the environment."""
    global _GLOBAL
    _GLOBAL = None
