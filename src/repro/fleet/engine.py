"""FleetEngine: a fault-isolating driver over per-tenant fused pipelines.

A collector service multiplexing many deployments runs one
:class:`~repro.core.pipeline.DetectionPipeline` per tenant.  The
paper's detector is per deployment — clustering and identification,
the alarm filters, the online HMMs and the structural classification
share no state across networks — so every tenant advances through its
own ``process_windows_fast`` and the engine only adds isolation
(DESIGN.md §13):

* **Health states.**  Every tenant is ``healthy``, ``degraded`` (its
  repair-mode supervisor recorded a violation; a status, not a
  different code path) or ``quarantined`` (faulted; under bounded
  recovery or permanently parked).
* **Epochs + checkpoints.**  Windows are consumed in epochs of
  ``checkpoint_interval`` windows per tenant; each active tenant's
  state at the epoch boundary is held as a snapshot checkpoint.
  Chunking is invisible: the fused path carries its state across
  calls, so an epoch-chunked run equals one ``process_windows_fast``
  call per tenant.
* **Attribution.**  The tenant whose call raised is the culprit.  It is
  rolled back to its checkpoint, and a per-window replay of its slice
  pins the faulting window.  No other tenant is rolled back or
  replayed.
* **Bounded recovery.**  A quarantined tenant replays from its last
  good checkpoint window by window, skipping windows that still fault;
  after ``probation`` consecutive clean windows it is healthy again.
  At most ``max_recoveries`` quarantine/restore cycles are attempted
  before the tenant is parked at its last good checkpoint for good.

Telemetry (per-tenant status, quarantine/restore/re-admit counters,
isolation-overhead timings) rides :meth:`FleetEngine.health_report`
and :meth:`FleetEngine.state_dict` under ``"fleet_health"``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from ..core.pipeline import DetectionPipeline

HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"

#: Per-tenant failure log cap: state_dict payloads stay bounded even if
#: a tenant faults on every window of a long soak.
_MAX_FAILURES = 64

#: Failure detail strings are clipped to this many characters.
_MAX_DETAIL = 200


@dataclass(frozen=True)
class TenantFailure:
    """One recorded tenant fault: what, where, and on which attempt."""

    kind: str
    window_index: Optional[int]
    detail: str
    attempt: int


@dataclass(eq=False)
class TenantHealth:
    """Health record for one tenant: status, counters, checkpoint."""

    tid: int
    status: str = HEALTHY
    quarantines: int = 0
    restores: int = 0
    readmissions: int = 0
    degradations: int = 0
    recovery_attempts: int = 0
    clean_streak: int = 0
    skipped_windows: int = 0
    failures: List[TenantFailure] = field(default_factory=list)
    failures_dropped: int = 0
    #: Windows consumed within the active ``process_windows`` call.
    position: int = 0
    #: State at the start of the current epoch as a snapshot dict.
    #: ``snapshot`` shares no mutable state with the live pipeline, and
    #: restores go through a JSON round-trip, so the stored dict stays
    #: pristine.
    checkpoint: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready counters and failure log (no position/checkpoint)."""
        report = {
            item.name: getattr(self, item.name)
            for item in fields(self)
            if item.name not in ("position", "checkpoint")
        }
        report["failures"] = [asdict(failure) for failure in self.failures]
        return report


class FleetEngine:
    """Advance many independent detection pipelines, one fault at a time.

    Parameters
    ----------
    pipelines:
        The tenant pipelines.  Healthy tenants finish every
        :meth:`process_windows` call in exactly the state their own
        ``process_windows_fast`` run would have left them in.
    checkpoint_interval:
        Epoch length in windows; also the per-tenant checkpoint cadence
        and the blast radius of a fault (a culprit replays at most this
        many windows).
    probation:
        Consecutive clean windows a degraded or recovering tenant must
        produce before it is healthy again.
    max_recoveries:
        Quarantine/restore cycles allowed per tenant before it is
        parked permanently (state frozen at its last good checkpoint).
    """

    def __init__(
        self,
        pipelines: Sequence[DetectionPipeline],
        *,
        checkpoint_interval: int = 256,
        probation: int = 16,
        max_recoveries: int = 2,
    ):
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if probation < 1:
            raise ValueError("probation must be >= 1")
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        self.pipelines: List[DetectionPipeline] = list(pipelines)
        self.checkpoint_interval = checkpoint_interval
        self.probation = probation
        self.max_recoveries = max_recoveries
        self.records = [TenantHealth(tid) for tid in range(len(self.pipelines))]
        self.counters: Dict[str, int] = {
            "epochs": 0,
            "checkpoints": 0,
            "rollbacks": 0,
            "attribution_probes": 0,
        }
        self.overhead: Dict[str, float] = {
            "checkpoint_seconds": 0.0,
            "rollback_seconds": 0.0,
            "attribution_seconds": 0.0,
            "recovery_seconds": 0.0,
        }

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def from_pipelines(
        cls, pipelines: Sequence[DetectionPipeline], **knobs: int
    ) -> "FleetEngine":
        """Wrap live pipelines in a fleet engine (no state copied).

        ``knobs`` are the constructor's keyword isolation settings.
        """
        return cls(pipelines, **knobs)

    def to_pipelines(self) -> List[DetectionPipeline]:
        """The tenant pipelines, consistent and individually usable."""
        return list(self.pipelines)

    def digests(self) -> List[str]:
        """Per-tenant content digests (see ``DetectionPipeline.digest``)."""
        return [pipeline.digest() for pipeline in self.pipelines]

    def state_dict(self) -> Dict[str, object]:
        """Versioned JSON-ready checkpoint of every tenant plus health."""
        from ..resilience.checkpoint import snapshot

        return {
            "fleet_version": 1,
            "tenants": [snapshot(pipeline) for pipeline in self.pipelines],
            "fleet_health": self.health_report(),
        }

    @classmethod
    def restore(cls, payload: Dict[str, object]) -> "FleetEngine":
        """Rebuild a fleet from :meth:`state_dict` output."""
        from ..resilience.checkpoint import CheckpointVersionError, restore

        version = payload.get("fleet_version")
        if version != 1:
            raise CheckpointVersionError(version, 1)
        return cls([restore(entry) for entry in payload["tenants"]])

    def health_report(self) -> Dict[str, object]:
        """JSON-ready fleet health telemetry."""
        records = self.records
        statuses = [record.status for record in records]
        return {
            "statuses": statuses,
            "counters": {
                "healthy": statuses.count(HEALTHY),
                "degraded": statuses.count(DEGRADED),
                "quarantined": statuses.count(QUARANTINED),
                "quarantines": sum(r.quarantines for r in records),
                "restores": sum(r.restores for r in records),
                "readmissions": sum(r.readmissions for r in records),
                "degradations": sum(r.degradations for r in records),
                "skipped_windows": sum(r.skipped_windows for r in records),
                **self.counters,
            },
            "overhead_seconds": dict(self.overhead),
            "tenants": [record.as_dict() for record in records],
            "checkpoint_interval": self.checkpoint_interval,
            "probation": self.probation,
            "max_recoveries": self.max_recoveries,
        }

    # -- the fleet run --------------------------------------------------

    def process_windows(self, windows_per_tenant: Sequence[Sequence]) -> int:
        """Advance every tenant through its own window list.

        ``windows_per_tenant[i]`` feeds ``pipelines[i]``; lists may have
        different lengths.  Returns the total number of windows consumed
        (skipped faulty windows count as consumed; windows of parked
        tenants do not).  A tenant's failure is recorded in its health
        record and never propagates.
        """
        if len(windows_per_tenant) != len(self.pipelines):
            raise ValueError(
                f"got {len(windows_per_tenant)} window lists for "
                f"{len(self.pipelines)} pipelines"
            )
        windows = [list(entry) for entry in windows_per_tenant]
        for record in self.records:
            record.position = 0
        consumed = 0
        while True:
            active = [
                tid
                for tid, record in enumerate(self.records)
                if not self._parked(record)
                and record.position < len(windows[tid])
            ]
            if not active:
                return consumed
            self.counters["epochs"] += 1
            for tid in active:
                consumed += self._advance(tid, windows[tid])

    def _parked(self, record: TenantHealth) -> bool:
        return (
            record.status == QUARANTINED
            and record.recovery_attempts > self.max_recoveries
        )

    def _advance(self, tid: int, windows: List) -> int:
        """Run one tenant's epoch slice; returns windows consumed."""
        record = self.records[tid]
        start = perf_counter()
        record.checkpoint = self._dump(self.pipelines[tid])
        self.overhead["checkpoint_seconds"] += perf_counter() - start
        end = min(record.position + self.checkpoint_interval, len(windows))
        if record.status == QUARANTINED:
            return self._recover(tid, windows, end)
        pipeline = self.pipelines[tid]
        span = windows[record.position : end]
        baseline = pipeline.supervisor_violations
        try:
            pipeline.process_windows_fast(span)
        except Exception as exc:
            self._quarantine(tid, exc, span)
            if self._parked(record):
                return 0
            return self._recover(tid, windows, end)
        record.position = end
        if pipeline.supervisor_violations > baseline:
            if record.status == HEALTHY:
                record.status = DEGRADED
                record.degradations += 1
            record.clean_streak = 0
            latest = pipeline.supervisor.violations[-1]
            self._record_failure(
                record,
                kind=f"invariant:{latest.invariant}",
                window_index=latest.window_index,
                detail=latest.detail,
            )
        elif record.status == DEGRADED:
            record.clean_streak += len(span)
            self._readmit_after_probation(record)
        return len(span)

    def _readmit_after_probation(self, record: TenantHealth) -> None:
        if record.clean_streak >= self.probation:
            record.status = HEALTHY
            record.readmissions += 1
            record.clean_streak = 0

    # -- quarantine + recovery ------------------------------------------

    def _quarantine(self, tid: int, exc: Exception, span: List) -> None:
        """Roll the culprit back and pin its faulting window."""
        record = self.records[tid]
        start = perf_counter()
        self.counters["attribution_probes"] += 1
        window_index: Optional[int] = None
        probe = self._restore_blob(record.checkpoint)
        for window in span:
            try:
                probe.process_window(window)
            except Exception as replayed:
                exc = replayed
                window_index = getattr(window, "index", None)
                break
        self.overhead["attribution_seconds"] += perf_counter() - start

        record.status = QUARANTINED
        record.quarantines += 1
        record.recovery_attempts += 1
        record.clean_streak = 0
        self._record_failure(
            record,
            kind=type(exc).__name__,
            window_index=window_index,
            detail=str(exc),
        )
        # Recovering or parked, the failed call may have half-mutated
        # the pipeline: put it back on its last good state either way.
        start = perf_counter()
        self.pipelines[tid] = self._restore_blob(record.checkpoint)
        record.restores += 1
        self.counters["rollbacks"] += 1
        self.overhead["rollback_seconds"] += perf_counter() - start

    def _recover(self, tid: int, windows: List, end: int) -> int:
        """Replay a quarantined tenant with per-window containment.

        Every window is advanced under a pre-window snapshot; a window
        that still faults is rolled back and skipped (recorded, streak
        reset).  The tenant replays its whole epoch slice and is
        declared healthy only at the slice end, once ``probation``
        consecutive clean windows have accumulated.  Deciding mid-slice
        would be a livelock: a tenant whose fault lies deeper into the
        slice than ``probation`` would be re-admitted before ever
        reaching (and skipping) it, then re-quarantined, burning its
        bounded attempts with no progress.
        """
        record = self.records[tid]
        start = perf_counter()
        consumed = end - record.position
        for window in windows[record.position : end]:
            pipeline = self.pipelines[tid]
            pre = self._dump(pipeline)
            baseline = pipeline.supervisor_violations
            try:
                pipeline.process_window(window)
            except Exception as exc:
                self.pipelines[tid] = self._restore_blob(pre)
                record.skipped_windows += 1
                record.clean_streak = 0
                self._record_failure(
                    record,
                    kind=type(exc).__name__,
                    window_index=getattr(window, "index", None),
                    detail=str(exc),
                )
                continue
            if pipeline.supervisor_violations == baseline:
                record.clean_streak += 1
            else:
                record.clean_streak = 0
        record.position = end
        self.overhead["recovery_seconds"] += perf_counter() - start
        self._readmit_after_probation(record)
        return consumed

    # -- checkpoint plumbing --------------------------------------------

    def _dump(self, pipeline: DetectionPipeline) -> Dict[str, object]:
        from ..resilience.checkpoint import snapshot

        self.counters["checkpoints"] += 1
        # Stored as a plain dict: ``snapshot`` shares no mutable state
        # with the live pipeline (pinned by the checkpoint alias tests),
        # so serialisation is deferred to the rare restore path.
        return snapshot(pipeline)

    @staticmethod
    def _restore_blob(blob: Dict[str, object]) -> DetectionPipeline:
        from ..resilience.checkpoint import restore

        # JSON round-trip = defensive deep copy: a restored pipeline must
        # never alias the stored checkpoint it may be rolled back to again.
        return restore(json.loads(json.dumps(blob)))

    def _record_failure(
        self,
        record: TenantHealth,
        kind: str,
        window_index: Optional[int],
        detail: str,
    ) -> None:
        if len(record.failures) >= _MAX_FAILURES:
            record.failures_dropped += 1
            return
        record.failures.append(
            TenantFailure(
                kind=kind,
                window_index=window_index,
                detail=detail[:_MAX_DETAIL],
                attempt=record.recovery_attempts,
            )
        )
