"""repro.obs — unified observability: spans, metrics, telemetry, exporters.

The span/metrics primitives are stdlib-only and imported eagerly (the
simmpi transport and the operator stack instrument against them); the
numpy-backed telemetry module and the exporters load lazily on first
attribute access so importing :mod:`repro.simmpi` stays light.
"""
from repro.obs.metrics import (
    MetricsRegistry,
    absorb_comm_stats,
    absorb_workspace_counters,
)
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    SpanTracer,
    active_tracer,
    current_rank,
    current_trace_context,
    disable,
    enable,
    new_trace_id,
    point,
    set_active,
    set_rank,
    set_trace_context,
    span,
    trace_context,
    traced,
    tracing,
)

_LAZY = {
    "ObsConfig": ("repro.obs.config", "ObsConfig"),
    "Observation": ("repro.obs.config", "Observation"),
    "TelemetryRecord": ("repro.obs.telemetry", "TelemetryRecord"),
    "TelemetrySeries": ("repro.obs.telemetry", "TelemetrySeries"),
    "block_partials": ("repro.obs.telemetry", "block_partials"),
    "combine_partials": ("repro.obs.telemetry", "combine_partials"),
    "record_for_state": ("repro.obs.telemetry", "record_for_state"),
    "chrome_trace": ("repro.obs.exporters", "chrome_trace"),
    "write_chrome_trace": ("repro.obs.exporters", "write_chrome_trace"),
    "load_chrome_trace": ("repro.obs.exporters", "load_chrome_trace"),
    "write_jsonl": ("repro.obs.exporters", "write_jsonl"),
    "read_jsonl": ("repro.obs.exporters", "read_jsonl"),
    "write_text_atomic": ("repro.obs.exporters", "write_text_atomic"),
    "FlightRecorder": ("repro.obs.flightrec", "FlightRecorder"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


__all__ = [
    "MetricsRegistry",
    "absorb_comm_stats",
    "absorb_workspace_counters",
    "NULL_SPAN",
    "Span",
    "SpanTracer",
    "active_tracer",
    "current_rank",
    "current_trace_context",
    "disable",
    "enable",
    "new_trace_id",
    "point",
    "set_active",
    "set_rank",
    "set_trace_context",
    "span",
    "trace_context",
    "traced",
    "tracing",
    *_LAZY,
]
