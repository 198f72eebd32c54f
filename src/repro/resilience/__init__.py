"""Resilience subsystem: surviving infrastructure failures.

The paper's detector runs *on-the-fly* on a collector node fed by lossy
radio links; its windowing tolerates missed and corrupted packets
(§4.1), but a production deployment must also survive failures of the
*infrastructure itself* — collector crashes, bursty loss, duplicated and
out-of-order packets, skewed clocks, non-finite readings.  This package
provides the three pillars:

* :mod:`repro.resilience.checkpoint` — versioned JSON
  ``snapshot()``/``restore()`` of the full :class:`DetectionPipeline`
  state, so a collector can crash mid-trace and resume with identical
  downstream diagnoses.
* :mod:`repro.resilience.chaos` — a :class:`ChaosCampaign` composing
  infrastructure faults (Gilbert–Elliott bursty loss, per-link delay /
  duplication / reordering, clock skew, collector kill + restart from
  checkpoint) orthogonally to the :mod:`repro.faults` data corruptors,
  and reporting graceful-degradation statistics.
* Hardened ingest lives with the collector itself
  (:mod:`repro.sensornet.collector` quarantines duplicate / late /
  non-finite messages) and in the :mod:`repro.core` input guards.

PR 4 added the *algorithmic* robustness leg:

* :mod:`repro.resilience.invariants` — a declarative registry of
  runtime invariants (finite centroids, bounded state count, alias
  acyclicity, row-stochastic HMMs, bounded track lengths) with bounded
  repair actions.
* :mod:`repro.resilience.supervisor` — checks the registry after every
  window (modes ``off | warn | repair | raise``) and monitors the
  paper's majority assumption, raising a :class:`ModelUnderAttack`
  meta-alarm and freezing β/γ learning while it is violated.
* :mod:`repro.resilience.fuzz` — the seeded adversarial fuzz/soak
  harness behind ``repro fuzz``.

Deployments share no state, so there is no fleet-level isolation layer:
``repro.experiments.run_fleet`` runs one pipeline per deployment and
quarantines a deployment whose run raises, the way ``run_campaign``
quarantines a poison spec (DESIGN.md §13).
"""

from .._lazy import lazy_exports
from .invariants import (
    DEFAULT_INVARIANTS,
    Invariant,
    InvariantViolationError,
    InvariantWarning,
    Violation,
    check_invariants,
    default_invariants,
)

# Checkpointing, chaos, fuzzing and the supervisor load on first use:
# a campaign without them never imports them (DESIGN.md §12.4).
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "chaos": (
            "ChaosCampaign",
            "ChaosReport",
            "ChaosSpec",
            "SimulatedWorkerCrash",
            "WorkerChaos",
            "WorkerChaosError",
        ),
        "checkpoint": (
            "CHECKPOINT_FORMAT_VERSION",
            "CheckpointVersionError",
            "load_checkpoint",
            "restore",
            "save_checkpoint",
            "snapshot",
        ),
        "fuzz": ("FuzzReport", "pathological_window", "run_fuzz"),
        "supervisor": ("ModelUnderAttack", "PipelineSupervisor"),
    },
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "ChaosCampaign",
    "ChaosReport",
    "ChaosSpec",
    "CheckpointVersionError",
    "DEFAULT_INVARIANTS",
    "FuzzReport",
    "Invariant",
    "InvariantViolationError",
    "InvariantWarning",
    "ModelUnderAttack",
    "PipelineSupervisor",
    "SimulatedWorkerCrash",
    "Violation",
    "WorkerChaos",
    "WorkerChaosError",
    "check_invariants",
    "default_invariants",
    "load_checkpoint",
    "pathological_window",
    "restore",
    "run_fuzz",
    "save_checkpoint",
    "snapshot",
]
