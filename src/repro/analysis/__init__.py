"""Analysis utilities: offline clustering, metrics, plain-text reports,
operator incident reports, and JSON persistence of findings."""

from .._lazy import lazy_exports
from .offline_clustering import (
    KMeansResult,
    discretize,
    initial_states_from_trace,
    kmeans,
)

# Only offline clustering is on the campaign path; the rest loads on
# first use (DESIGN.md §12.4).
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "incident": ("RECOVERY_ACTIONS", "incident_report", "recommended_action"),
        "metrics": (
            "ConfusionMatrix",
            "DetectionOutcome",
            "DetectionSummary",
            "alarm_rates",
            "detection_outcomes",
            "false_alarm_rate",
            "summarize_detection",
        ),
        "reporting": (
            "render_alarm_series",
            "render_emission_matrix",
            "render_kv",
            "render_markov_model",
            "render_table",
            "state_label",
        ),
        "serialization": (
            "REPORT_FORMAT_VERSION",
            "ReportSummary",
            "load_report",
            "pipeline_to_dict",
            "save_report",
        ),
    },
)

__all__ = [
    "ConfusionMatrix",
    "DetectionOutcome",
    "DetectionSummary",
    "KMeansResult",
    "RECOVERY_ACTIONS",
    "REPORT_FORMAT_VERSION",
    "ReportSummary",
    "alarm_rates",
    "detection_outcomes",
    "discretize",
    "false_alarm_rate",
    "incident_report",
    "initial_states_from_trace",
    "kmeans",
    "load_report",
    "pipeline_to_dict",
    "recommended_action",
    "render_alarm_series",
    "render_emission_matrix",
    "render_kv",
    "render_markov_model",
    "render_table",
    "save_report",
    "state_label",
    "summarize_detection",
]
