"""Seeded per-tenant poison injection for multi-tenant fleets.

:mod:`repro.resilience.chaos` attacks the simulated infrastructure and
the campaign runtime; this module attacks the **fleet layer**: K of N
tenants in a :class:`~repro.fleet.FleetEngine` are fed seeded
poison bursts and the run must degrade per tenant, never collectively.

Poison kinds (the fleet analogue of the fuzz harness's pathologies):

``nan_burst`` / ``inf_burst``
    Non-finite readings.  The hardened ingest path drops them, so these
    are *absorbed* — the tenant must stay healthy without quarantine.
``exploding``
    Finite readings near the float64 ceiling whose window means
    overflow; the spawn guard raises ``ValueError`` deterministically.
``malformed``
    Windows with the wrong attribute dimensionality; the fused
    window-mean prepass raises on the dimension mismatch.
``exception``
    A :class:`FaultingWindow` proxy whose data accessors raise
    :class:`InjectedKernelFault` — a forced kernel-level failure.

Selection, kind assignment, and burst placement are all drawn from
SHA-256 over the seed (the :class:`~repro.resilience.chaos.WorkerChaos`
idiom), so a fleet-chaos run is exactly reproducible from its CLI
arguments — which is what lets CI diff surviving-tenant digests against
independently computed clean solo runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sensornet.collector import ArrayWindow

#: All poison kinds, in kind-assignment order.
POISON_KINDS = (
    "nan_burst",
    "inf_burst",
    "exploding",
    "malformed",
    "exception",
)

#: Kinds the hardened ingest path is expected to absorb without any
#: quarantine: the poisoned tenant must finish healthy.
ABSORBED_KINDS = frozenset({"nan_burst", "inf_burst"})

#: Finite but near-ceiling reading magnitude: sums of a window of these
#: overflow to inf, so the spawn guard fails deterministically.
_EXPLODING_VALUE = 8e307


class InjectedKernelFault(RuntimeError):
    """Raised by :class:`FaultingWindow` on any data access."""


class FaultingWindow:
    """A window proxy that raises from every data accessor.

    Keeps real ``index`` / ``start_minutes`` / ``end_minutes`` so the
    bookkeeping around the failure stays coherent, but any attempt to
    read observations, messages, or means raises
    :class:`InjectedKernelFault`.  This is the forced-kernel-exception
    poison: the failure happens *inside* the tenant's fused advance,
    exactly where containment must catch it.
    """

    __slots__ = ("index", "start_minutes", "end_minutes")

    def __init__(self, index: int, start_minutes: float, end_minutes: float):
        self.index = index
        self.start_minutes = start_minutes
        self.end_minutes = end_minutes

    def _boom(self):
        raise InjectedKernelFault(
            f"injected kernel fault (window {self.index})"
        )

    @property
    def observations(self):
        self._boom()

    @property
    def messages(self):
        self._boom()

    @property
    def sensor_ids(self):
        self._boom()

    @property
    def sensor_id_array(self):
        self._boom()

    @property
    def is_empty(self):
        self._boom()

    def per_sensor_mean(self):
        self._boom()

    def overall_mean(self):
        self._boom()


def _sha_u64(text: str) -> int:
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


@dataclass(frozen=True)
class FleetPoison:
    """Deterministic poison plan: which tenants, which kind, where.

    Victims are the ``n_poisoned`` tenants with the lowest SHA-256 rank
    over ``(seed, tid)``; each victim's kind is an independent seeded
    draw from ``kinds`` (so different seeds exercise different kind
    mixes), and its burst of ``burst`` consecutive poisoned windows
    lands in the middle third of its trace — early enough to hit
    mid-run, late enough to leave a clean tail for probation and
    re-admission.
    """

    n_poisoned: int = 2
    kinds: Tuple[str, ...] = POISON_KINDS
    burst: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_poisoned < 0:
            raise ValueError("n_poisoned must be >= 0")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if not self.kinds:
            raise ValueError("kinds must be non-empty")
        unknown = set(self.kinds) - set(POISON_KINDS)
        if unknown:
            raise ValueError(
                f"unknown poison kinds: {sorted(unknown)} "
                f"(choose from {list(POISON_KINDS)})"
            )

    def victims(self, n_tenants: int) -> Dict[int, str]:
        """Map of poisoned tenant id -> poison kind."""
        ranked = sorted(
            range(n_tenants),
            key=lambda tid: _sha_u64(f"fleet-poison:{self.seed}:{tid}"),
        )
        count = min(self.n_poisoned, n_tenants)
        return {
            tid: self.kinds[
                _sha_u64(f"fleet-poison-kind:{self.seed}:{tid}")
                % len(self.kinds)
            ]
            for tid in ranked[:count]
        }

    def burst_start(self, tid: int, n_windows: int) -> int:
        """First poisoned window position for this tenant."""
        span = max(1, n_windows // 3)
        offset = _sha_u64(f"fleet-poison-pos:{self.seed}:{tid}") % span
        return min(n_windows // 3 + offset, max(0, n_windows - self.burst))

    def poison_trace(self, windows: Sequence, tid: int, kind: str) -> List:
        """A copy of ``windows`` with this tenant's burst injected."""
        poisoned = list(windows)
        start = self.burst_start(tid, len(poisoned))
        for position in range(
            start, min(start + self.burst, len(poisoned))
        ):
            poisoned[position] = _poison_window(poisoned[position], kind)
        return poisoned


def _poison_window(window, kind: str):
    if kind == "exception":
        return FaultingWindow(
            window.index, window.start_minutes, window.end_minutes
        )
    observations = np.array(window.observations, dtype=float)
    sensor_ids = np.array(window.sensor_id_array)
    n_attributes = window.n_attributes
    if kind == "nan_burst":
        observations[:] = np.nan
    elif kind == "inf_burst":
        observations[:] = np.inf
    elif kind == "exploding":
        observations[:] = _EXPLODING_VALUE
    elif kind == "malformed":
        observations = np.ones(
            (observations.shape[0], observations.shape[1] + 1)
        )
        n_attributes += 1
    else:  # pragma: no cover - guarded by FleetPoison validation
        raise ValueError(f"unknown poison kind: {kind}")
    return ArrayWindow(
        window.index,
        window.start_minutes,
        window.end_minutes,
        observations,
        sensor_ids,
        n_attributes,
    )


@dataclass
class TenantOutcome:
    """How one tenant came through a fleet-chaos run."""

    tid: int
    kind: Optional[str]
    status: str
    quarantines: int
    readmissions: int
    degradations: int
    skipped_windows: int
    recovery_attempts: int
    digest: str
    failure_kinds: List[str] = field(default_factory=list)
    failure_windows: List[Optional[int]] = field(default_factory=list)
    #: For clean tenants: does the fleet result match the solo run
    #: bit-for-bit (digest and snapshot)?  None for poisoned tenants.
    solo_parity: Optional[bool] = None

    @property
    def handled(self) -> bool:
        """Did the runtime do the right thing with this tenant?

        Clean tenants must stay healthy and bit-identical to solo;
        absorbed kinds must sail through untouched; every other poison
        must have triggered at least one quarantine or degradation
        with its failure recorded.
        """
        if self.kind is None:
            return self.solo_parity is True and self.status == "healthy"
        if self.kind in ABSORBED_KINDS:
            return self.status == "healthy" and self.quarantines == 0
        contained = self.quarantines > 0 or self.degradations > 0
        recorded = bool(self.failure_kinds)
        recovered = self.status in ("healthy", "quarantined", "degraded")
        return contained and recorded and recovered


@dataclass
class FleetChaosReport:
    """Outcome of one seeded K-of-N fleet poisoning run."""

    seed: int
    n_tenants: int
    n_windows: int
    kinds: Tuple[str, ...]
    victims: Dict[int, str]
    consumed: int
    outcomes: List[TenantOutcome]
    health: Dict[str, object]

    @property
    def survivors_ok(self) -> bool:
        return all(
            outcome.solo_parity is True
            for outcome in self.outcomes
            if outcome.kind is None
        )

    @property
    def ok(self) -> bool:
        return all(outcome.handled for outcome in self.outcomes)

    def render(self) -> str:
        counters = self.health["counters"]
        absorbed = sum(
            1
            for outcome in self.outcomes
            if outcome.kind in ABSORBED_KINDS and outcome.quarantines == 0
        )
        lines = [
            (
                f"fleet-chaos: tenants={self.n_tenants} "
                f"poisoned={len(self.victims)} seed={self.seed} "
                f"windows={self.n_windows} kinds={','.join(self.kinds)}"
            )
        ]
        for outcome in self.outcomes:
            if outcome.kind is None:
                parity = "ok" if outcome.solo_parity else "MISMATCH"
                lines.append(
                    f"tenant={outcome.tid} digest={outcome.digest} "
                    f"solo_parity={parity}"
                )
            else:
                failures = ";".join(
                    f"{kind}@{window}"
                    for kind, window in zip(
                        outcome.failure_kinds, outcome.failure_windows
                    )
                )
                lines.append(
                    f"tenant={outcome.tid} kind={outcome.kind} "
                    f"status={outcome.status} "
                    f"quarantines={outcome.quarantines} "
                    f"readmissions={outcome.readmissions} "
                    f"attempts={outcome.recovery_attempts} "
                    f"skipped={outcome.skipped_windows} "
                    f"failures=[{failures or '-'}]"
                )
        lines.append(
            (
                f"summary: consumed={self.consumed} "
                f"quarantined={counters['quarantines']} "
                f"readmitted={counters['readmissions']} "
                f"degraded={counters['degradations']} "
                f"absorbed={absorbed} rollbacks={counters['rollbacks']} "
                f"epochs={counters['epochs']}"
            )
        )
        lines.append(
            "survivors: " + ("bit-identical" if self.survivors_ok else "MISMATCH")
        )
        lines.append("verdict: " + ("OK" if self.ok else "FINDINGS"))
        return "\n".join(lines)


def _fleet_workload(
    seed: int,
    n_windows: int = 400,
    dwell: int = 40,
    noise: float = 0.25,
    n_sensors: int = 10,
):
    """One tenant's clean trace: two-regime telemetry.

    Each deployment alternates between two well-separated operating
    regimes (think heating/cooling plant states) every ``dwell``
    windows, with per-sensor Gaussian noise: long steady stretches
    broken by occasional regime changes.
    """
    from .. import PipelineConfig
    from ..sensornet.collector import windows_from_arrays

    rng = np.random.default_rng(seed)
    ts: List[float] = []
    sids: List[int] = []
    vals: List[np.ndarray] = []
    for index in range(1, n_windows + 1):
        hot = ((index - 1) // dwell) % 2
        truth = (
            np.array([31.0, 95.0]) if hot else np.array([11.0, 55.0])
        )
        for sensor in range(n_sensors):
            ts.append((index - 1) * 60.0 + 1.0)
            sids.append(sensor)
            vals.append(truth + rng.normal(0, noise, 2))
    ts_arr = np.asarray(ts, dtype=float)
    sid_arr = np.asarray(sids)
    val_arr = np.asarray(vals, dtype=float)
    order = np.lexsort((sid_arr, ts_arr))
    return windows_from_arrays(
        ts_arr[order],
        sid_arr[order],
        val_arr[order],
        PipelineConfig().window_minutes,
    )


def _tenant_trace(seed: int, tid: int, n_windows: int) -> List:
    return list(_fleet_workload(seed * 1009 + tid, n_windows=n_windows))


def run_fleet_chaos(
    n_tenants: int = 8,
    n_poisoned: int = 2,
    kinds: Tuple[str, ...] = POISON_KINDS,
    seed: int = 0,
    n_windows: int = 240,
    burst: int = 5,
    checkpoint_interval: int = 64,
    probation: int = 12,
    max_recoveries: int = 2,
) -> FleetChaosReport:
    """Poison K of N tenants and assert per-tenant degradation.

    Every clean tenant's post-run digest *and* snapshot must equal an
    independent clean ``process_windows_fast`` solo run on the same
    trace; every poisoned tenant must be absorbed, degraded, or
    quarantined (with its failure recorded) — never crash the fleet.
    """
    from .. import DetectionPipeline, PipelineConfig
    from ..fleet import FleetEngine
    from .checkpoint import snapshot

    if n_tenants < 1:
        raise ValueError("n_tenants must be >= 1")
    poison = FleetPoison(
        n_poisoned=n_poisoned, kinds=tuple(kinds), burst=burst, seed=seed
    )
    victims = poison.victims(n_tenants)
    traces = [_tenant_trace(seed, tid, n_windows) for tid in range(n_tenants)]

    solo: Dict[int, Tuple[str, object]] = {}
    for tid in range(n_tenants):
        if tid in victims:
            continue
        pipeline = DetectionPipeline(PipelineConfig())
        pipeline.process_windows_fast(list(traces[tid]))
        solo[tid] = (pipeline.digest(), snapshot(pipeline))

    fleet_traces = [
        poison.poison_trace(traces[tid], tid, victims[tid])
        if tid in victims
        else list(traces[tid])
        for tid in range(n_tenants)
    ]
    engine = FleetEngine(
        [DetectionPipeline(PipelineConfig()) for _ in range(n_tenants)],
        checkpoint_interval=checkpoint_interval,
        probation=probation,
        max_recoveries=max_recoveries,
    )
    consumed = engine.process_windows(fleet_traces)

    outcomes: List[TenantOutcome] = []
    for tid in range(n_tenants):
        record = engine.records[tid]
        digest = engine.pipelines[tid].digest()
        parity: Optional[bool] = None
        if tid not in victims:
            solo_digest, solo_snapshot = solo[tid]
            parity = (
                digest == solo_digest
                and snapshot(engine.pipelines[tid]) == solo_snapshot
            )
        outcomes.append(
            TenantOutcome(
                tid=tid,
                kind=victims.get(tid),
                status=record.status,
                quarantines=record.quarantines,
                readmissions=record.readmissions,
                degradations=record.degradations,
                skipped_windows=record.skipped_windows,
                recovery_attempts=record.recovery_attempts,
                digest=digest,
                failure_kinds=[f.kind for f in record.failures],
                failure_windows=[f.window_index for f in record.failures],
                solo_parity=parity,
            )
        )
    return FleetChaosReport(
        seed=seed,
        n_tenants=n_tenants,
        n_windows=n_windows,
        kinds=tuple(kinds),
        victims=victims,
        consumed=consumed,
        outcomes=outcomes,
        health=engine.health_report(),
    )


def solo_reference_digests(
    n_tenants: int,
    n_poisoned: int,
    kinds: Tuple[str, ...],
    seed: int,
    n_windows: int,
    burst: int = 5,
) -> str:
    """Clean tenants' solo digests in fleet-chaos report line format.

    An independent oracle for the CI gate: the ``tenant=N digest=...``
    lines printed here are computed without any fleet machinery, so
    diffing them against a fleet-chaos run's survivor lines proves the
    isolated fleet left healthy tenants bit-identical.
    """
    from .. import DetectionPipeline, PipelineConfig

    poison = FleetPoison(
        n_poisoned=n_poisoned, kinds=tuple(kinds), burst=burst, seed=seed
    )
    victims = poison.victims(n_tenants)
    lines = []
    for tid in range(n_tenants):
        if tid in victims:
            continue
        pipeline = DetectionPipeline(PipelineConfig())
        pipeline.process_windows_fast(_tenant_trace(seed, tid, n_windows))
        lines.append(f"tenant={tid} digest={pipeline.digest()}")
    return "\n".join(lines)


def fleet_chaos_command(
    n_tenants: int = 8,
    n_poisoned: int = 2,
    kinds: Tuple[str, ...] = POISON_KINDS,
    seed: int = 0,
    n_windows: int = 240,
    burst: int = 5,
    checkpoint_interval: int = 64,
    probation: int = 12,
    max_recoveries: int = 2,
    solo_reference: bool = False,
) -> Tuple[str, int]:
    """CLI entry: one seeded fleet-chaos run (or its solo oracle)."""
    if solo_reference:
        text = solo_reference_digests(
            n_tenants, n_poisoned, tuple(kinds), seed, n_windows, burst
        )
        return text, 0
    report = run_fleet_chaos(
        n_tenants=n_tenants,
        n_poisoned=n_poisoned,
        kinds=tuple(kinds),
        seed=seed,
        n_windows=n_windows,
        burst=burst,
        checkpoint_interval=checkpoint_interval,
        probation=probation,
        max_recoveries=max_recoveries,
    )
    return report.render(), 0 if report.ok else 1


def fleet_soak_command(
    n_seeds: int = 5,
    base_seed: int = 0,
    n_tenants: int = 8,
    n_poisoned: int = 2,
    kinds: Tuple[str, ...] = POISON_KINDS,
    n_windows: int = 240,
    burst: int = 5,
    checkpoint_interval: int = 64,
    probation: int = 12,
    max_recoveries: int = 2,
) -> Tuple[str, int]:
    """CLI entry: multi-seed fleet-chaos soak across all poison kinds.

    Each seed draws a fresh victim set, kind assignment, and burst
    placement; the soak passes only if *every* run degrades per tenant
    with survivors bit-identical to solo.
    """
    lines: List[str] = []
    failures = 0
    totals = {"quarantines": 0, "readmissions": 0, "absorbed": 0}
    for seed in range(base_seed, base_seed + n_seeds):
        report = run_fleet_chaos(
            n_tenants=n_tenants,
            n_poisoned=n_poisoned,
            kinds=tuple(kinds),
            seed=seed,
            n_windows=n_windows,
            burst=burst,
            checkpoint_interval=checkpoint_interval,
            probation=probation,
            max_recoveries=max_recoveries,
        )
        counters = report.health["counters"]
        absorbed = sum(
            1
            for outcome in report.outcomes
            if outcome.kind in ABSORBED_KINDS and outcome.quarantines == 0
        )
        totals["quarantines"] += counters["quarantines"]
        totals["readmissions"] += counters["readmissions"]
        totals["absorbed"] += absorbed
        status = "ok" if report.ok else "FINDINGS"
        if not report.ok:
            failures += 1
        lines.append(
            f"seed={seed} poisoned={len(report.victims)} "
            f"quarantined={counters['quarantines']} "
            f"readmitted={counters['readmissions']} absorbed={absorbed} "
            f"survivors={'ok' if report.survivors_ok else 'MISMATCH'} "
            f"{status}"
        )
        if not report.ok:
            lines.append(report.render())
    lines.append(
        f"fleet-soak: seeds={n_seeds} tenants={n_tenants} "
        f"poisoned_per_run={n_poisoned} "
        f"quarantined={totals['quarantines']} "
        f"readmitted={totals['readmissions']} "
        f"absorbed={totals['absorbed']} failures={failures}"
    )
    lines.append("verdict: " + ("OK" if failures == 0 else "FINDINGS"))
    return "\n".join(lines), 0 if failures == 0 else 1
