"""Trace generation, persistence, and windowing.

The synthetic Great Duck Island generator (:mod:`repro.traces.gdi`)
replaces the paper's proprietary July-2003 traces; see DESIGN.md §2.
"""

from .._lazy import lazy_exports
from .cache import CachedTrace, TraceCache, canonical_spec_hash, scenario_spec
from .columnar import (
    GENERATOR_VERSION,
    ColumnarTrace,
    generate_gdi_trace_columnar,
    tick_schedule,
)
from .gdi import (
    GDI_DURATION_DAYS,
    GDI_SAMPLE_PERIOD_MINUTES,
    GDI_SENSOR_COUNT,
    GDITraceConfig,
    build_environment,
    generate_gdi_trace,
)
from .schema import Trace, TraceRecord, trace_from_messages
from .windows import (
    non_empty_windows,
    window_trace,
    window_trace_by_samples,
    window_trace_columnar,
    window_trace_columnar_by_samples,
)

# Trace files on disk are not part of a campaign (DESIGN.md §12.4).
__getattr__, __dir__ = lazy_exports(
    __name__, globals(), {"loader": ("LoadReport", "load_trace", "save_trace")}
)

__all__ = [
    "CachedTrace",
    "ColumnarTrace",
    "GDITraceConfig",
    "GDI_DURATION_DAYS",
    "GDI_SAMPLE_PERIOD_MINUTES",
    "GDI_SENSOR_COUNT",
    "GENERATOR_VERSION",
    "LoadReport",
    "Trace",
    "TraceCache",
    "TraceRecord",
    "build_environment",
    "canonical_spec_hash",
    "generate_gdi_trace",
    "generate_gdi_trace_columnar",
    "load_trace",
    "non_empty_windows",
    "save_trace",
    "scenario_spec",
    "tick_schedule",
    "trace_from_messages",
    "window_trace",
    "window_trace_by_samples",
    "window_trace_columnar",
    "window_trace_columnar_by_samples",
]
