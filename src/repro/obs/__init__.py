"""Campaign observability: metrics, event logs, reports, traces, telemetry.

See ``docs/OBSERVABILITY.md``.  Everything here is off by default — a
campaign only pays for observability when the corresponding knob is
configured: ``REPRO_OBS``/``--obs-log`` (trial event log, byte-identical
from run to run), ``REPRO_TRACE``/``--trace`` (hierarchical wall-clock span
traces, Chrome trace events — the only place a trial's wall time is
recorded), and ``REPRO_HEARTBEAT``/``--heartbeat`` (live status file for
``python -m repro.obs top``).
"""

from .events import (
    SCHEMA_VERSION,
    cache_hit_event,
    campaign_begin_event,
    campaign_end_event,
    read_events,
    trial_event,
)
from .heartbeat import (
    HEARTBEAT_SCHEMA_VERSION,
    LiveStatus,
    read_heartbeat,
)
from .metrics import (
    Counter,
    MetricsRegistry,
    enable_global,
    global_registry,
    reset_global,
)
from .report import LogReport, percentile
from .top import render_heartbeat, watch
from .trace import (
    TRACE_SCHEMA_VERSION,
    Tracer,
    TraceSummary,
    activate,
    current,
    load_trace,
    render_summary,
    summarize_trace,
    validate_trace,
)

__all__ = [
    "HEARTBEAT_SCHEMA_VERSION", "SCHEMA_VERSION", "TRACE_SCHEMA_VERSION",
    "Counter", "MetricsRegistry",
    "LiveStatus", "LogReport", "TraceSummary",
    "Tracer",
    "activate", "cache_hit_event", "campaign_begin_event",
    "campaign_end_event", "current", "enable_global",
    "global_registry", "load_trace", "percentile",
    "read_events", "read_heartbeat",
    "render_heartbeat", "render_summary", "reset_global", "summarize_trace",
    "trial_event", "validate_trace", "watch",
]
