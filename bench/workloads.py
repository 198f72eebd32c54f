"""The four benchmark workloads: generated inputs, one pass, its check.

Each workload builds its inputs from the benchmark seed in
:meth:`prepare`, turns them into verdicts in :meth:`run_pass` (the timed
region), and condenses a pass into :class:`Verdict` records outside the
timed region.  :meth:`reference` gives the records an independent path
produces for the same inputs; the runner fails every record whose
payload differs from its reference.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import DetectionPipeline, PipelineConfig
from repro.core.classification import AnomalyType
from repro.experiments import ScenarioSpec, runner
from repro.experiments.ablations import A5_EQUIVALENCES
from repro.experiments.scenarios import ATTACK_FRACTION, DEFAULT_ONSET_DAYS
from repro.faults.attacks import DynamicCreationAttack, DynamicDeletionAttack, MixedAttack
from repro.faults.base import ActivationSchedule
from repro.faults.campaign import CampaignSpec, choose_compromised
from repro.faults.errors import (
    AdditiveFault,
    CalibrationFault,
    DriftFault,
    PacketDropper,
    StuckAtFault,
)
from repro.traces import GDITraceConfig, generate_gdi_trace_columnar
from repro.traces.gdi import build_environment
from repro.traces.windows import window_trace_columnar

from measure import percentile

#: Campaign specs: two errors and two attacks, the paper's Tables 2-7.
CAMPAIGN_SCENARIOS = ("stuck_at", "calibration", "deletion", "creation")

#: Fault plan of deployment ``i`` is ``PLANS[i % 8]``.
PLANS = (
    "none",
    "stuck_at",
    "calibration",
    "additive",
    "drift",
    "deletion",
    "creation",
    "mixed",
)

#: Campaign pool size, matching the 2-CPU host the baseline comes from.
N_JOBS = 2

#: Days per campaign-cold spec.  Short enough for six or so cold passes
#: in one run; the fault onset (day 2) still falls inside the trace.
COLD_DAYS = 3

#: Days per campaign-hot spec.  A 7-day set-up is short enough to repeat
#: three times in a run, so ``setup_s`` is a median too.
HOT_DAYS = 7

#: Tenants of fleet-gdi: enough for the batched kernels to amortise,
#: few enough for a pass of about a second and many passes per run.
FLEET_TENANTS = 64

#: Open-loop arrival rate of the stream workload's latency probe.
STREAM_RATE_PER_S = 1000.0


@dataclass
class Verdict:
    """What one deployment's pass produced, condensed for checking.

    ``payload`` is compared field by field against the reference (a
    :class:`~repro.experiments.runner.ScenarioOutcome` for campaigns, the
    pipeline digest otherwise); ``expected``/``got`` map sensor id to
    anomaly type for scoring against the planted ground truth.
    """

    id: str
    payload: object
    digest: str
    expected: Dict[int, str]
    got: Dict[int, str]
    error: str = ""


def expected_verdict(ground_truth: Dict[int, str]) -> Dict[int, str]:
    """Planted kinds as the diagnosis the paper's method should give."""
    expected = {
        sensor: A5_EQUIVALENCES.get(kind, kind)
        for sensor, kind in ground_truth.items()
    }
    return {sensor: kind for sensor, kind in expected.items() if kind != "none"}


def observed_verdict(diagnoses) -> Dict[int, str]:
    """``diagnose_all()`` output as sensor id -> anomaly type."""
    return {
        sensor: diagnosis.anomaly_type.value
        for sensor, diagnosis in diagnoses.items()
        if diagnosis.anomaly_type is not AnomalyType.NONE
    }


def fault_plan(index: int, seed: int, n_days: int) -> Optional[CampaignSpec]:
    """Deployment ``index``'s plan: one faulty sensor or a third attacking.

    Attacks use the library's default GDI anchors instead of a clean
    reference run, so generating a deployment costs one trace.
    """
    kind = PLANS[index % len(PLANS)]
    if kind == "none":
        return None
    onset = ActivationSchedule(
        start_minutes=min(DEFAULT_ONSET_DAYS, n_days / 2.0) * 24 * 60.0
    )
    sensor = seed % 10
    compromised = choose_compromised(range(10), ATTACK_FRACTION, seed=seed)
    plan = CampaignSpec(name=kind)
    if kind == "stuck_at":
        stuck = PacketDropper(
            inner=StuckAtFault(value=(15.0, 1.0)), drop_probability=0.5, seed=seed
        )
        plan.plant(stuck, [sensor], onset)
    elif kind == "calibration":
        plan.plant(CalibrationFault(gains=(1.0 / 1.24, 1.16)), [sensor], onset)
    elif kind == "additive":
        plan.plant(AdditiveFault(offsets=(6.0, 12.0)), [sensor], onset)
    elif kind == "drift":
        drift = DriftFault(terminal=(15.0, 1.0), ramp_minutes=24 * 60.0)
        plan.plant(drift, [sensor], onset)
    elif kind == "deletion":
        plan.plant(DynamicDeletionAttack(), compromised)
    elif kind == "creation":
        plan.plant(DynamicCreationAttack(trigger=(12.0, 94.0)), compromised)
    else:
        plan.plant(MixedAttack(), compromised)
    return plan


@dataclass
class Deployment:
    """One generated deployment: its windows and the verdict it should get."""

    id: str
    windows: list
    expected: Dict[int, str]


def make_deployment(index: int, seed: int, n_days: int) -> Deployment:
    config = GDITraceConfig(n_days=n_days, seed=seed)
    plan = fault_plan(index, seed, n_days)
    injector = plan.build_injector(build_environment(config)) if plan else None
    trace = generate_gdi_trace_columnar(config, corruption=injector)
    windows = window_trace_columnar(trace, PipelineConfig().window_minutes)
    truth = plan.ground_truth() if plan else {}
    return Deployment(
        id=f"{seed}:{PLANS[index % len(PLANS)]}",
        windows=windows,
        expected=expected_verdict(truth),
    )


def pipeline_verdicts(pipelines: Sequence[DetectionPipeline]) -> list:
    """The paper's outputs per deployment: diagnoses, system verdict, M_C."""
    return [
        (p, p.diagnose_all(), p.system_diagnosis(), p.correct_model())
        for p in pipelines
    ]


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    prepare_reps = 3
    #: campaign pool size of an untraced pass
    pass_jobs = 1
    #: deployment-windows one pass turns into verdicts (known after setup)
    windows_per_pass = 0

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, n_jobs: int = 1) -> object:
        """One timed pass; ``n_jobs`` is the campaign pool size."""
        raise NotImplementedError

    def records(self, raw: object) -> List[Verdict]:
        raise NotImplementedError

    def reference(self) -> List[Verdict]:
        raise NotImplementedError

    def trace_plan(self) -> List[Tuple[str, int]]:
        """Traced passes as (tag, n_jobs); the first gives the layer split."""
        return [("traced", 1)]

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer metrics measured outside the traced pass."""
        return {}


class _Campaign(Workload):
    n_days = 0

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        n_days = 2 if quick else self.n_days
        self.specs = [ScenarioSpec(name, n_days, seed) for name in CAMPAIGN_SCENARIOS]

    def _fresh_cache(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def trace_plan(self) -> List[Tuple[str, int]]:
        # Inline, every span lands in this process.
        return [("n_jobs=1", 1)]

    def _campaign(self, n_jobs: int, cache_dir: Optional[str]):
        # Looked up at call time so a traced pass sees the wrapper.
        return runner.run_campaign(self.specs, n_jobs=n_jobs, cache_dir=cache_dir)

    def _records(self, report, require_cache: bool) -> List[Verdict]:
        self.windows_per_pass = sum(o.n_windows for o in report.outcomes)
        records = []
        for outcome in report.outcomes:
            error = outcome.error
            if not error and require_cache and not outcome.from_cache:
                error = "not replayed from the trace cache"
            records.append(
                Verdict(
                    id=f"{outcome.seed}:{outcome.name}",
                    payload=outcome,
                    digest=outcome.digest,
                    expected=expected_verdict(outcome.ground_truth),
                    got={
                        sensor: entry[1]
                        for sensor, entry in outcome.sensor_diagnoses.items()
                        if entry[1] != AnomalyType.NONE.value
                    },
                    error=error,
                )
            )
        return records


class CampaignCold(_Campaign):
    """What a first ``repro campaign --cache-dir`` user pays."""

    name = "campaign-cold"
    n_days = COLD_DAYS
    pass_jobs = N_JOBS

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        self._last_cache: Optional[str] = None

    def prepare(self) -> None:
        """Nothing to build ahead: every pass starts from an empty cache."""

    def run_pass(self, n_jobs: int = 1) -> object:
        cache_dir = self._fresh_cache()
        return self._campaign(n_jobs, cache_dir), cache_dir

    def records(self, raw) -> List[Verdict]:
        report, cache_dir = raw
        if self._last_cache is not None:
            shutil.rmtree(self._last_cache, ignore_errors=True)
        self._last_cache = cache_dir
        return self._records(report, require_cache=False)

    def reference(self) -> List[Verdict]:
        """A hot replay of the last cold pass's cache must equal it."""
        return self._records(
            self._campaign(N_JOBS, self._last_cache), require_cache=True
        )


class CampaignHot(_Campaign):
    """Replays from a warm cache: cache load, windowing, detection.

    Passes run inline (``n_jobs=1``): on the 2-vCPU host, pooled hot
    passes spread by 12-26% of the median between runs, inline passes
    scaled by the host probe by 5-6%.
    """

    name = "campaign-hot"
    n_days = HOT_DAYS

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        self.cache_dir: Optional[str] = None

    def prepare(self) -> None:
        """Warm a fresh cache the way a user does: a pooled cold campaign."""
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = self._fresh_cache()
        self._cold = self._campaign(N_JOBS, self.cache_dir)

    def run_pass(self, n_jobs: int = 1) -> object:
        return self._campaign(n_jobs, self.cache_dir)

    def records(self, raw) -> List[Verdict]:
        return self._records(raw, require_cache=True)

    def reference(self) -> List[Verdict]:
        """The cold run that warmed the cache."""
        return self._records(self._cold, require_cache=False)

    def trace_plan(self) -> List[Tuple[str, int]]:
        # The second pass records the parent-side shared-memory spans.
        return [("n_jobs=1", 1), (f"n_jobs={N_JOBS}", N_JOBS)]


class _Deployments(Workload):
    """Workloads over columnar-generated GDI deployments."""

    def _generate(self, count: int, n_days: int, seed_of) -> None:
        self.deployments = []  # free the last set-up's windows first
        self.deployments = [
            make_deployment(index, seed_of(index), n_days) for index in range(count)
        ]
        self.windows_per_pass = sum(len(d.windows) for d in self.deployments)

    def records(self, verdicts) -> List[Verdict]:
        records = []
        for deployment, (pipeline, diagnoses, _, _) in zip(self.deployments, verdicts):
            digest = pipeline.digest()
            records.append(
                Verdict(
                    id=deployment.id,
                    payload=digest,
                    digest=digest,
                    expected=deployment.expected,
                    got=observed_verdict(diagnoses),
                )
            )
        return records

    def _fast_reference(self) -> Tuple[List[Verdict], float]:
        """Per-deployment ``process_windows_fast`` records and their time."""
        busy = 0.0
        pipelines = []
        for deployment in self.deployments:
            pipeline = DetectionPipeline(PipelineConfig())
            start = time.perf_counter()
            pipeline.process_windows_fast(deployment.windows)
            busy += time.perf_counter() - start
            pipelines.append(pipeline)
        return self.records(pipeline_verdicts(pipelines)), busy


class StreamOnline(_Deployments):
    """The paper's on-the-fly collector: one window at a time, per node."""

    name = "stream-online"

    def prepare(self) -> None:
        n_days = 2 if self.quick else 21
        self._generate(10, n_days, lambda index: self.seed + index)

    def _arrivals(self):
        """(deployment index, window) in round-robin arrival order."""
        longest = max(len(d.windows) for d in self.deployments)
        for position in range(longest):
            for index, deployment in enumerate(self.deployments):
                if position < len(deployment.windows):
                    yield index, deployment.windows[position]

    def _pipelines(self) -> List[DetectionPipeline]:
        return [DetectionPipeline(PipelineConfig()) for _ in self.deployments]

    def run_pass(self, n_jobs: int = 1) -> object:
        """Closed loop: each window is fed as soon as the last returns."""
        pipelines = self._pipelines()
        for index, window in self._arrivals():
            pipelines[index].process_window(window)
        return pipeline_verdicts(pipelines)

    def reference(self) -> List[Verdict]:
        return self._fast_reference()[0]

    def layer_extras(self) -> Dict[str, float]:
        """Open loop at a fixed rate, latency timed from each due time."""
        period = 1.0 / STREAM_RATE_PER_S
        latencies: List[float] = []
        lags: List[float] = []
        backlog_max = 0
        for _ in range(1 if self.quick else 2):
            pipelines = self._pipelines()
            origin = time.perf_counter()
            for arrival, (index, window) in enumerate(self._arrivals()):
                due = origin + arrival * period
                now = time.perf_counter()
                while now < due:  # spin: sleep() overshoots a 1 ms period
                    now = time.perf_counter()
                lags.append(now - due)
                backlog_max = max(backlog_max, int((now - origin) / period) - arrival)
                pipelines[index].process_window(window)
                latencies.append(time.perf_counter() - due)
        return {
            "stream.latency_p50_ms": percentile(latencies, 50) * 1e3,
            "stream.latency_p99_ms": percentile(latencies, 99) * 1e3,
            "stream.latency_samples": len(latencies),
            "stream.backlog_max": backlog_max,
            "stream.generator_lag_max_ms": max(lags) * 1e3,
        }


class FleetGDI(_Deployments):
    """Many tenants advanced together by ``experiments.run_fleet``."""

    name = "fleet-gdi"

    def prepare(self) -> None:
        count, n_days = (16, 2) if self.quick else (FLEET_TENANTS, 7)
        self._generate(count, n_days, lambda index: self.seed * 1000 + index)

    def run_pass(self, n_jobs: int = 1) -> object:
        windows = [deployment.windows for deployment in self.deployments]
        return pipeline_verdicts(runner.run_fleet(windows))

    def reference(self) -> List[Verdict]:
        records, busy = self._fast_reference()
        self._solo_us = busy / self.windows_per_pass * 1e6
        return records

    def layer_extras(self) -> Dict[str, float]:
        return {"fleet.solo_us_per_deployment_window": self._solo_us}


WORKLOADS = {
    workload.name: workload
    for workload in (CampaignCold, CampaignHot, StreamOnline, FleetGDI)
}
