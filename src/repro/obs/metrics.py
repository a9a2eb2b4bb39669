"""Lightweight metrics registry: counters, timers, histograms.

The design goal is *near-zero overhead when disabled*: a disabled registry
hands out shared null instruments whose methods are no-op one-liners, and
instrumented code holds the instrument (not the registry), so the per-event
cost in the disabled configuration is a single no-op method call — cheap
enough to leave the instrumentation permanently threaded through the
campaign engine without perturbing the performance ledger's numbers.

Instruments:

* :class:`Counter` — monotonically increasing count (``inc``);
* :class:`Timer` — wall-clock accumulator (``time()`` context manager or
  explicit ``add_seconds``) with count/total/max;
* :class:`Histogram` — power-of-two bucketed distribution of non-negative
  values (detection latencies in cycles, trial wall-times in µs).  Buckets
  are ``value.bit_length()`` of the integer value, so memory stays O(64)
  regardless of how many observations a million-trial sweep records, while
  still supporting percentile *estimates* (upper bucket bound).

The process-wide default registry (:func:`global_registry`) is enabled when
``REPRO_OBS`` is set (see :mod:`repro.settings`); library code records into
it, and :func:`enable_global`/:func:`reset_global` let tests and CLIs control
it explicitly.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, Optional, Tuple

from .. import settings

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Timer",
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


class Timer:
    """Accumulated wall-clock time with call count and max."""

    __slots__ = ("name", "count", "total_seconds", "max_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def add_seconds(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def time(self) -> "_TimerContext":
        return _TimerContext(self)

    def snapshot(self):
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "max_seconds": self.max_seconds,
        }


class _TimerContext:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.add_seconds(time.perf_counter() - self._start)


class Histogram:
    """Power-of-two bucketed histogram of non-negative values.

    Bucket ``b`` holds values whose integer part has bit length ``b`` (i.e.
    value 0 → bucket 0, 1 → 1, 2..3 → 2, 4..7 → 3, ...), so the upper bound
    of bucket ``b`` is ``2**b - 1``.  Exact count/sum/min/max are kept
    alongside, and :meth:`quantile` returns the upper bound of the bucket
    containing the requested rank — a ≤2x overestimate, adequate for
    at-a-glance latency monitoring (exact percentiles come from the JSONL
    trial log, see :mod:`repro.obs.report`).
    """

    __slots__ = ("name", "count", "total", "min_value", "max_value", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value) -> None:
        if value < 0:
            value = 0
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile observation."""
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                return float((1 << bucket) - 1)
        return float(self.max_value or 0.0)  # pragma: no cover - defensive

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class _NullInstrument:
    """Shared do-nothing instrument handed out by disabled registries."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def add_seconds(self, seconds: float) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def time(self) -> "_NullInstrument":
        return self

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def snapshot(self):
        return None


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named instrument store; disabled registries cost one no-op per event."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def timer(self, name: str) -> Timer:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        found = self._timers.get(name)
        if found is None:
            found = self._timers[name] = Timer(name)
        return found

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name)
        return found

    def counts(self) -> Dict[str, int]:
        """Current value of every counter, by name."""
        return {name: c.value for name, c in self._counters.items()}

    def instruments(self) -> Iterator[Tuple[str, object]]:
        yield from self._counters.items()
        yield from self._timers.items()
        yield from self._histograms.items()

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump of every instrument, sorted by name."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self.instruments())
        }

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()
        self._histograms.clear()


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
