"""Multi-tenant fleet driver over per-tenant fused pipelines.

:class:`FleetEngine` advances many independent
:class:`~repro.core.pipeline.DetectionPipeline` instances ("tenants"),
each through its own ``process_windows_fast``, in checkpointed epochs:
per-tenant health states (healthy → degraded → quarantined), rollback
of the tenant whose call raised, and bounded auto-recovery with
probation (see DESIGN.md §13).
"""

from .engine import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    FleetEngine,
    TenantFailure,
    TenantHealth,
)

__all__ = [
    "FleetEngine",
    "TenantFailure",
    "TenantHealth",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
]
