"""Rate-limited stderr progress for long campaigns.

Plugs into ``run_campaign(..., on_trial=...)``; prints live trials/sec
(overall plus a rolling EMA), an ETA, and running outcome tallies at most
once per ``min_interval`` seconds so a million-trial sweep stays observable
without drowning the terminal (or a CI log) in per-trial lines.

Tallies are kept in a :class:`~repro.obs.metrics.MetricsRegistry` (a private
one by default, or a shared registry passed by the caller), so progress
accounting and campaign telemetry read from the same instruments.  Call
:meth:`ProgressPrinter.finish` when the campaign completes: it flushes a
final summary line even when the run ended inside the rate-limit interval —
previously the last trials of a campaign could go silently unprinted (e.g.
when the printer's ``total`` overestimated the trials actually executed, as
happens for a partially cached sweep or an aborted run).
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from ..obs.metrics import MetricsRegistry
from .outcomes import Outcome, TrialResult

__all__ = ["ProgressPrinter"]

#: EMA smoothing for the rolling trials/sec column (matches the heartbeat's)
_EMA_ALPHA = 0.3

_SHORT = {
    Outcome.MASKED: "masked",
    Outcome.SWDETECT: "sw",
    Outcome.HWDETECT: "hw",
    Outcome.FAILURE: "fail",
    Outcome.USDC: "usdc",
}


class ProgressPrinter:
    """``on_trial`` callback printing throughput + outcome tallies."""

    def __init__(
        self,
        total: int,
        label: str = "",
        stream: Optional[TextIO] = None,
        min_interval: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        # The printer always needs live counters, so a disabled (null)
        # registry is replaced by a private enabled one.
        if registry is None or not registry.enabled:
            registry = MetricsRegistry()
        self.registry = registry
        self._done = self.registry.counter("progress.trials")
        self._outcomes = {
            o: self.registry.counter(f"progress.outcome.{o.value}")
            for o in Outcome
        }
        self.done = 0
        self._start = time.perf_counter()
        # -inf, not 0.0: perf_counter() may count from boot, and the first
        # trial must print even on a host up for less than min_interval.
        self._last_print = float("-inf")
        #: value of ``done`` at the last emitted line (-1: nothing emitted)
        self._emitted_done = -1
        #: rolling trials/sec (EMA over inter-emit windows; None until the
        #: second window exists)
        self.rate_ema: Optional[float] = None
        self._ema_t = self._start
        self._ema_done = 0

    def __call__(self, trial: TrialResult) -> None:
        self.done += 1
        self._done.inc()
        self._outcomes[trial.outcome].inc()
        now = time.perf_counter()
        if (
            now - self._last_print >= self.min_interval
            or self.done == self.total
        ):
            self._last_print = now
            self._emit(now)

    def batch(self, trials) -> None:
        """Account a burst of trials from one executed chunk at once.

        Equivalent to calling the printer once per trial, except the rate
        check runs after the whole burst is folded in.  That keeps the EMA
        honest for batched campaigns: per-trial calls would sample the
        instantaneous rate at the burst's *first* trial — a window spanning
        the whole sweep but containing none of its completions — biasing
        the rolling trials/sec (and the ETA) low by up to a full batch.
        """
        for trial in trials:
            self.done += 1
            self._done.inc()
            self._outcomes[trial.outcome].inc()
        if not trials:
            return
        now = time.perf_counter()
        if (
            now - self._last_print >= self.min_interval
            or self.done == self.total
        ):
            self._last_print = now
            self._emit(now)

    def note(self, message: str) -> None:
        """Print a one-off out-of-band line (e.g. a recovery action).

        Bypasses the rate limiter: recovery actions are rare and the user
        should see them when they happen, not at the next progress tick.
        """
        prefix = f"{self.label}: " if self.label else ""
        print(f"  {prefix}{message}", file=self.stream, flush=True)

    def finish(self) -> None:
        """Flush the final summary line if the last trials went unprinted.

        Safe to call unconditionally (idempotent): campaigns that already
        printed their last state — including zero-trial cache hits — emit
        nothing extra.
        """
        if self._emitted_done != self.done and self.done > 0:
            self._emit(time.perf_counter(), final=True)

    def _update_ema(self, now: float) -> None:
        """Fold the window since the last emit into the rolling rate.

        Fed from the registry's ``progress.trials`` counter (the shared
        source of truth for completed-trial accounting, which under a shared
        registry may advance from several printers).
        """
        done = self._done.value
        dt = now - self._ema_t
        if dt <= 0 or done <= self._ema_done:
            return
        instantaneous = (done - self._ema_done) / dt
        self.rate_ema = (
            instantaneous if self.rate_ema is None
            else _EMA_ALPHA * instantaneous + (1 - _EMA_ALPHA) * self.rate_ema
        )
        self._ema_t = now
        self._ema_done = done

    def _eta_seconds(self) -> Optional[float]:
        rate = self.rate_ema
        if rate is None or rate <= 0:
            return None
        remaining = self.total - self.done
        if remaining <= 0:
            return None
        return remaining / rate

    @staticmethod
    def _fmt_eta(seconds: Optional[float]) -> str:
        if seconds is None:
            return ""
        seconds = int(seconds)
        if seconds >= 3600:
            return (f" eta {seconds // 3600}:"
                    f"{seconds % 3600 // 60:02d}:{seconds % 60:02d}")
        return f" eta {seconds // 60:02d}:{seconds % 60:02d}"

    def _emit(self, now: float, final: bool = False) -> None:
        elapsed = max(now - self._start, 1e-9)
        rate = self.done / elapsed
        self._update_ema(now)
        ema = f" ({self.rate_ema:.1f} ema)" if self.rate_ema is not None else ""
        eta = "" if final else self._fmt_eta(self._eta_seconds())
        tallies = " ".join(
            f"{_SHORT[o]}={counter.value}"
            for o, counter in self._outcomes.items()
            if counter.value
        )
        prefix = f"{self.label}: " if self.label else ""
        suffix = " (done)" if final else ""
        print(
            f"  {prefix}[{self.done}/{self.total}] "
            f"{rate:.1f} trials/s{ema}{eta} {tallies}".rstrip() + suffix,
            file=self.stream,
            flush=True,
        )
        self._emitted_done = self.done

    @property
    def counts(self):
        """Outcome tally view (kept for callers that read the counters)."""
        return {o: counter.value for o, counter in self._outcomes.items()}
