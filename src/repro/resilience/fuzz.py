"""Adversarial fuzz/soak harness for the detection pipeline.

Drives :class:`~repro.core.pipeline.DetectionPipeline` with seeded,
deterministic *pathological* window streams — NaN/Inf bursts, constant
floods, all-sensors-corrupt windows, ±1e300 magnitudes, duplicate
sensor ids, empty and single-sensor windows, interleaved with healthy
traffic — and asserts after every step that

* ``process_window`` never raises (a crash is a finding),
* every invariant of :mod:`~repro.resilience.invariants` holds, and
* (periodically) a checkpoint JSON round-trip reproduces the digest
  bit-exactly, i.e. pathological state stays checkpointable.

The harness is exposed as ``repro fuzz --seeds N`` (and a ``--soak``
variant with longer streams and denser checkpointing); the CI smoke job
runs it as a blocking gate.  Everything is derived from
``np.random.default_rng(base_seed + seed_index)``, so any finding
reproduces from its seed alone.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import PipelineConfig
from ..core.pipeline import DetectionPipeline
from ..sensornet.collector import ObservationWindow
from ..sensornet.messages import SensorMessage
from .checkpoint import restore, snapshot
from .invariants import check_invariants

#: The pathological window kinds the generator draws from.
PATHOLOGY_KINDS = (
    "healthy",
    "nan_burst",
    "inf_burst",
    "constant_flood",
    "all_corrupt",
    "huge_magnitude",
    "duplicate_ids",
    "empty",
    "single_sensor",
)

#: Draw weights: healthy traffic dominates so models actually form and
#: the pathologies hit *established* state, which is the hard case.
_KIND_WEIGHTS = {
    "healthy": 0.40,
    "nan_burst": 0.08,
    "inf_burst": 0.08,
    "constant_flood": 0.07,
    "all_corrupt": 0.09,
    "huge_magnitude": 0.08,
    "duplicate_ids": 0.07,
    "empty": 0.06,
    "single_sensor": 0.07,
}

_BASE_VALUE = np.array([20.0, 75.0])


def _window(index: int, rows: List[Tuple[int, Tuple[float, float]]]) -> ObservationWindow:
    """Build a 60-minute window from ``(sensor_id, attributes)`` rows."""
    start = (index - 1) * 60.0
    messages = tuple(
        SensorMessage(
            sensor_id=sensor_id,
            timestamp=start + 1.0 + offset * 0.25,
            attributes=tuple(float(x) for x in attrs),
        )
        for offset, (sensor_id, attrs) in enumerate(rows)
    )
    return ObservationWindow(
        index=index,
        start_minutes=start,
        end_minutes=start + 60.0,
        messages=messages,
        n_attributes=2,
    )


def pathological_window(
    index: int, kind: str, rng: np.random.Generator, n_sensors: int = 8
) -> ObservationWindow:
    """One deterministic pathological window of the given kind."""
    if kind not in PATHOLOGY_KINDS:
        raise ValueError(f"unknown pathology kind {kind!r}")
    healthy = [
        (sensor, tuple(_BASE_VALUE + rng.normal(0.0, 0.5, size=2)))
        for sensor in range(n_sensors)
    ]
    if kind == "healthy":
        rows = healthy
    elif kind == "nan_burst":
        rows = list(healthy)
        for sensor in rng.choice(n_sensors, size=rng.integers(1, n_sensors + 1), replace=False):
            vec = list(rows[sensor][1])
            vec[int(rng.integers(0, 2))] = float("nan")
            rows[sensor] = (int(sensor), tuple(vec))
    elif kind == "inf_burst":
        rows = list(healthy)
        for sensor in rng.choice(n_sensors, size=rng.integers(1, n_sensors + 1), replace=False):
            sign = -1.0 if rng.random() < 0.5 else 1.0
            rows[sensor] = (int(sensor), (sign * float("inf"), sign * float("inf")))
    elif kind == "constant_flood":
        # Every sensor hammers the identical constant, twelve times over.
        rows = [
            (sensor, (42.0, 42.0))
            for sensor in range(n_sensors)
            for _ in range(12)
        ]
    elif kind == "all_corrupt":
        # Every sensor corrupt at once, scattered: no majority exists.
        rows = [
            (sensor, tuple(rng.uniform(-300.0, 300.0, size=2)))
            for sensor in range(n_sensors)
        ]
    elif kind == "huge_magnitude":
        rows = list(healthy)
        for sensor in rng.choice(n_sensors, size=rng.integers(1, n_sensors + 1), replace=False):
            sign = -1.0 if rng.random() < 0.5 else 1.0
            rows[sensor] = (int(sensor), (sign * 1e300, sign * 1e300))
    elif kind == "duplicate_ids":
        rows = list(healthy)
        for _ in range(int(rng.integers(1, 6))):
            sensor = int(rng.integers(0, n_sensors))
            rows.append(
                (sensor, tuple(_BASE_VALUE + rng.normal(0.0, 30.0, size=2)))
            )
    elif kind == "empty":
        rows = []
    else:  # single_sensor
        sensor = int(rng.integers(0, n_sensors))
        rows = [(sensor, tuple(_BASE_VALUE + rng.normal(0.0, 0.5, size=2)))]
    return _window(index, rows)


@dataclass
class FuzzReport:
    """Outcome of one fuzz/soak run (see :func:`run_fuzz`)."""

    n_seeds: int
    windows_per_seed: int
    base_seed: int
    mode: str
    soak: bool = False
    n_windows: int = 0
    kind_counts: Dict[str, int] = field(default_factory=dict)
    #: ``"seed S window W: invariant: detail"`` per violation found.
    violations: List[str] = field(default_factory=list)
    #: ``"seed S window W kind K: ExceptionRepr"`` per crash.
    crashes: List[str] = field(default_factory=list)
    #: Digest mismatches / restore errors from checkpoint round-trips.
    checkpoint_failures: List[str] = field(default_factory=list)
    meta_alarms_raised: int = 0
    frozen_windows: int = 0

    @property
    def ok(self) -> bool:
        """True when the run found nothing: no crashes, no violations,
        no checkpoint divergence."""
        return not (self.violations or self.crashes or self.checkpoint_failures)

    def render(self) -> str:
        """Human-readable multi-line report."""
        label = "soak" if self.soak else "fuzz"
        lines = [
            f"{label}: {self.n_seeds} seeds x {self.windows_per_seed} windows "
            f"(base seed {self.base_seed}, supervisor mode {self.mode}) -> "
            f"{self.n_windows} windows processed",
            "pathologies: "
            + ", ".join(
                f"{kind}={self.kind_counts.get(kind, 0)}"
                for kind in PATHOLOGY_KINDS
            ),
            f"meta-alarms raised: {self.meta_alarms_raised} "
            f"(learning frozen for {self.frozen_windows} windows)",
            f"crashes: {len(self.crashes)}",
            f"invariant violations: {len(self.violations)}",
            f"checkpoint round-trip failures: {len(self.checkpoint_failures)}",
        ]
        for crash in self.crashes[:10]:
            lines.append(f"  crash: {crash}")
        for violation in self.violations[:10]:
            lines.append(f"  violation: {violation}")
        for failure in self.checkpoint_failures[:10]:
            lines.append(f"  checkpoint: {failure}")
        lines.append("verdict: " + ("OK" if self.ok else "FINDINGS"))
        return "\n".join(lines)


def _roundtrip_digest(pipeline: DetectionPipeline) -> str:
    """Digest of the pipeline after a snapshot -> JSON -> restore trip."""
    payload = json.loads(json.dumps(snapshot(pipeline), sort_keys=True))
    return restore(payload).digest()


def run_fuzz(
    n_seeds: int = 25,
    windows_per_seed: int = 80,
    base_seed: int = 0,
    mode: str = "warn",
    checkpoint_every: int = 5,
    n_sensors: int = 8,
    config: Optional[PipelineConfig] = None,
    soak: bool = False,
) -> FuzzReport:
    """Fuzz the pipeline with ``n_seeds`` independent pathological streams.

    Each seed drives a fresh supervised pipeline through
    ``windows_per_seed`` windows whose kinds are drawn from
    :data:`PATHOLOGY_KINDS`.  After every window all invariants are
    checked; every ``checkpoint_every`` windows (and once at end of
    stream) the pipeline is snapshotted, JSON round-tripped, restored,
    and digest-compared.  ``mode`` selects the supervisor mode under
    test (warn-mode :class:`InvariantWarning` emissions are captured
    into the report rather than escalating under ``-W error``).
    """
    if n_seeds < 1 or windows_per_seed < 1:
        raise ValueError("n_seeds and windows_per_seed must be positive")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be positive")
    report = FuzzReport(
        n_seeds=n_seeds,
        windows_per_seed=windows_per_seed,
        base_seed=base_seed,
        mode=mode,
        soak=soak,
        kind_counts={kind: 0 for kind in PATHOLOGY_KINDS},
    )
    kinds = list(_KIND_WEIGHTS)
    weights = np.array([_KIND_WEIGHTS[k] for k in kinds])
    weights = weights / weights.sum()

    for seed_index in range(n_seeds):
        seed = base_seed + seed_index
        rng = np.random.default_rng(seed)
        if config is None:
            run_config = PipelineConfig(
                n_sensors=n_sensors, supervisor_mode=mode
            )
        else:
            run_config = config
        pipeline = DetectionPipeline(run_config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # findings are *recorded*
            for step in range(1, windows_per_seed + 1):
                kind = str(rng.choice(kinds, p=weights))
                report.kind_counts[kind] += 1
                window = pathological_window(
                    step, kind, rng, n_sensors=n_sensors
                )
                try:
                    result = pipeline.process_window(window)
                except Exception as exc:  # noqa: BLE001 - crash = finding
                    report.crashes.append(
                        f"seed {seed} window {step} kind {kind}: {exc!r}"
                    )
                    break
                report.n_windows += 1
                if result.learning_frozen:
                    report.frozen_windows += 1
                for violation in check_invariants(pipeline):
                    report.violations.append(
                        f"seed {seed} window {step}: "
                        f"{violation.invariant}: {violation.detail}"
                    )
                if step % checkpoint_every == 0 or step == windows_per_seed:
                    try:
                        restored = _roundtrip_digest(pipeline)
                        original = pipeline.digest()
                        if restored != original:
                            report.checkpoint_failures.append(
                                f"seed {seed} window {step}: digest "
                                f"{original[:12]} != restored {restored[:12]}"
                            )
                    except Exception as exc:  # noqa: BLE001
                        report.checkpoint_failures.append(
                            f"seed {seed} window {step}: {exc!r}"
                        )
        if pipeline.supervisor is not None:
            report.meta_alarms_raised += len(pipeline.supervisor.meta_alarms)
    return report


def fuzz_command(
    n_seeds: int,
    windows: Optional[int],
    soak: bool,
    base_seed: int,
    mode: str,
) -> "tuple[str, int]":
    """CLI body for ``repro fuzz``; returns (report text, exit code)."""
    if windows is None:
        windows = 400 if soak else 80
    report = run_fuzz(
        n_seeds=n_seeds,
        windows_per_seed=windows,
        base_seed=base_seed,
        mode=mode,
        checkpoint_every=10 if soak else 5,
        soak=soak,
    )
    return report.render(), 0 if report.ok else 1
