"""Shared plumbing for trace-driven experiment runs.

Besides the serial helpers (:func:`run_pipeline`, :func:`run_scenario`),
this module hosts the *fault-tolerant campaign runtime* used by the
table/figure reproductions and the fault campaigns.
:func:`run_campaign` executes a list of :class:`ScenarioSpec` entries
across a ``ProcessPoolExecutor`` with per-task futures carrying
deadlines, exponential backoff with deterministic jitter
(:class:`~repro.experiments.retry.RetryPolicy`), pool rebuild after a
worker crash (``BrokenProcessPool``), and poison-spec quarantine: a
spec that fails every retry is recorded with its traceback in the
returned :class:`CampaignReport` and excluded from the campaign
verdict, never fatal — finished results are always salvaged.  With a
journal directory, every task transition is written to an append-only
JSONL write-ahead log (:mod:`repro.experiments.journal`) so an
interrupted or crashed campaign resumes exactly-once, skipping
completed specs.

Workers return :class:`ScenarioOutcome` summaries (plain picklable
data, no live pipeline objects — the pipeline holds unpicklable filter
factories) in the exact order the specs were submitted, and every
scenario is rebuilt from its own seed, so results are identical
regardless of ``n_jobs`` and of any interleaving of crashes, retries,
and resumes.

One scheduling loop serves every ``n_jobs``: with a single worker
it runs each task in this process behind an in-process executor, so
the serial path shares the pool's retry, quarantine and journal
policy instead of copying it.  Pool workers receive only the small
spec payload; with a trace cache each worker loads a hit itself
(:meth:`~repro.traces.cache.TraceCache.load`) and replays it.

Workers need no set-up of their own.  The parent loads
``numpy.random`` before it creates the pool, so a forked worker
inherits the whole campaign stack already imported; under ``spawn`` or
``forkserver``, unpickling the task function imports the stack in the
worker.  Chaos and the journal are imported only by campaigns that use
them (DESIGN.md §12.4).
"""

from __future__ import annotations

import math
import numbers
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..analysis.offline_clustering import initial_states_from_trace
from ..config import PipelineConfig
from ..core.pipeline import DetectionPipeline, WindowResult
from ..faults.campaign import CampaignSpec
from ..sensornet.collector import ArrayWindow, ObservationWindow
from ..traces.columnar import ColumnarTrace, generate_gdi_trace_columnar
from ..traces.gdi import GDITraceConfig, build_environment
from ..traces.schema import Trace
from ..traces.windows import window_trace_columnar_by_samples
from .retry import RetryPolicy, TaskError

if TYPE_CHECKING:
    from ..resilience.chaos import WorkerChaos
    from .journal import CampaignJournal


def compute_initial_states(
    trace: Union[Trace, ColumnarTrace], config: PipelineConfig, seed: int = 0
) -> np.ndarray:
    """Table 1's initial state estimate: offline k-means on the data."""
    if isinstance(trace, ColumnarTrace):
        observations = trace.delivered_arrays()[2]
    else:
        observations = np.vstack([record.vector for record in trace.records])
    return initial_states_from_trace(
        observations, config.n_initial_states, seed=seed
    )


def run_pipeline(
    trace: Union[Trace, ColumnarTrace],
    config: Optional[PipelineConfig] = None,
    initial_states: Optional[Sequence[np.ndarray]] = None,
) -> DetectionPipeline:
    """Feed a full trace through a fresh pipeline and return it.

    Windows are cut columnarly and consumed by the fused
    :meth:`~DetectionPipeline.process_windows_fast`, which leaves the
    pipeline bit-identical to a per-window ``process_window`` loop.
    """
    config = config or PipelineConfig()
    pipeline = DetectionPipeline(config, initial_states=initial_states)
    pipeline.process_windows_fast(
        window_trace_columnar_by_samples(
            trace, config.window_samples, config.sample_period_minutes
        )
    )
    return pipeline


def run_fleet(
    windows_per_tenant: Sequence[Sequence[ObservationWindow]],
    configs: Optional[Sequence[Optional[PipelineConfig]]] = None,
) -> List[Union[DetectionPipeline, TaskError]]:
    """Run many independent deployments, one fused pipeline each.

    ``windows_per_tenant[i]`` is deployment ``i``'s window list (lengths
    may differ); ``configs[i]`` is its pipeline configuration (``None``
    entries — or ``configs=None`` — mean a default config).  Deployments
    share no state (DESIGN.md §13), so each gets a fresh pipeline and one
    ``process_windows_fast`` call, and its result is bit-identical to
    that solo run.  A deployment whose call raises is quarantined the way
    :func:`run_campaign` quarantines a poison spec: its slot holds the
    :class:`~repro.experiments.retry.TaskError` instead of a pipeline,
    and no other deployment is touched.  ``KeyboardInterrupt``
    propagates.
    """
    if configs is None:
        configs = [None] * len(windows_per_tenant)
    if len(configs) != len(windows_per_tenant):
        raise ValueError(
            f"got {len(configs)} configs for "
            f"{len(windows_per_tenant)} window lists"
        )
    tenants: List[Union[DetectionPipeline, TaskError]] = []
    for windows, config in zip(windows_per_tenant, configs):
        pipeline = DetectionPipeline(config or PipelineConfig())
        try:
            pipeline.process_windows_fast(windows)
        except Exception as exc:
            tenants.append(TaskError.from_exception(exc))
        else:
            tenants.append(pipeline)
    return tenants


@dataclass
class ScenarioRun:
    """Everything one experiment scenario produced.

    Attributes
    ----------
    name:
        Scenario label.
    columnar:
        The (possibly corrupted) generated trace as dense arrays.
    pipeline:
        The pipeline after consuming the trace.
    campaign:
        The corruption plan, or None for clean runs.
    config:
        Pipeline configuration used.
    trace_config:
        Workload generator configuration used.
    """

    name: str
    columnar: ColumnarTrace
    pipeline: DetectionPipeline
    campaign: Optional[CampaignSpec]
    config: PipelineConfig
    trace_config: GDITraceConfig
    _trace: Optional[Trace] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def trace(self) -> Trace:
        """The delivered trace as records, built on first access."""
        if self._trace is None:
            self._trace = self.columnar.to_trace()
        return self._trace

    @property
    def ground_truth(self) -> Dict[int, str]:
        """sensor id -> planted corruption kind (empty for clean runs)."""
        return self.campaign.ground_truth() if self.campaign else {}

    def windows(self) -> List[ArrayWindow]:
        """Re-window the trace (for detectors that need raw windows)."""
        return window_trace_columnar_by_samples(
            self.columnar,
            self.config.window_samples,
            self.config.sample_period_minutes,
        )


def run_scenario(
    name: str,
    campaign: Optional[CampaignSpec] = None,
    trace_config: Optional[GDITraceConfig] = None,
    config: Optional[PipelineConfig] = None,
    initial_states: Optional[Sequence[np.ndarray]] = None,
    use_offline_initial_states: bool = False,
) -> ScenarioRun:
    """Generate a GDI trace (optionally corrupted) and run the pipeline.

    Parameters
    ----------
    name:
        Scenario label for reports.
    campaign:
        Corruption plan; None for a clean run.
    trace_config / config:
        Workload and pipeline configurations (Table 1 defaults).
    initial_states:
        Explicit initial model states.
    use_offline_initial_states:
        When True (and no explicit states given), compute the Table 1
        offline-clustering estimate from the generated trace itself.
    """
    trace_config = trace_config or GDITraceConfig()
    config = config or PipelineConfig()
    environment = build_environment(trace_config)
    injector = campaign.build_injector(environment) if campaign else None
    columnar = generate_gdi_trace_columnar(trace_config, corruption=injector)
    if initial_states is None and use_offline_initial_states:
        initial_states = compute_initial_states(columnar, config)
    pipeline = run_pipeline(columnar, config, initial_states=initial_states)
    return ScenarioRun(
        name=name,
        columnar=columnar,
        pipeline=pipeline,
        campaign=campaign,
        config=config,
        trace_config=trace_config,
    )


# -- parallel fan-out ------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario to run in the parallel fan-out.

    ``name`` must be one of the registered standard scenarios (the same
    vocabulary as ``repro scenario`` / ``cached_scenario``); the builder
    is resolved inside the worker process so the spec itself stays a
    tiny picklable value.
    """

    name: str
    n_days: int = 21
    seed: int = 2003


@dataclass(frozen=True)
class ScenarioOutcome:
    """Picklable summary of one scenario run.

    Everything the experiment tables and the campaign scorers consume,
    without the live pipeline (whose filter bank holds closure factories
    that cannot cross a process boundary).  Two runs of the same spec
    compare equal field-by-field, which is what the determinism tests
    assert across ``n_jobs`` settings.
    """

    name: str
    n_days: int
    seed: int
    n_windows: int
    n_model_states: int
    system_diagnosis: str
    #: sensor id -> (category, anomaly type, confidence)
    sensor_diagnoses: Dict[int, Tuple[str, str, float]]
    ground_truth: Dict[int, str]
    n_raw_alarms: int
    n_tracks: int
    correct_model_labels: Tuple[str, ...]
    #: Content hash of the final pipeline state
    #: (:meth:`DetectionPipeline.digest`); cached and regenerated runs
    #: of the same spec must agree on it.
    digest: str = ""
    #: True when the trace came from the scenario cache rather than a
    #: fresh simulation.  Excluded from equality — a cache-hot rerun
    #: compares equal to its cold original.
    from_cache: bool = field(default=False, compare=False)
    #: Why the spec was quarantined (kind, message, traceback); empty
    #: for successful runs.  Quarantined outcomes carry no digest and
    #: zeroed counters — they are placeholders that keep the campaign's
    #: spec order while surfacing the failure in reports.
    error: str = ""
    #: Attempts the campaign runtime spent on this spec (1 = first try
    #: succeeded).  Excluded from equality: retry counts are scheduling
    #: noise, and a chaos-battered rerun must still compare equal to a
    #: clean one — the digest is what certifies the result.
    attempts: int = field(default=1, compare=False)

    @property
    def quarantined(self) -> bool:
        """True when the spec failed every retry and was excluded."""
        return bool(self.error)

    def detected_sensors(self) -> List[int]:
        """Sensors diagnosed with anything (sorted)."""
        return sorted(self.sensor_diagnoses)

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the campaign journal."""
        return {
            "name": self.name,
            "n_days": int(self.n_days),
            "seed": int(self.seed),
            "n_windows": int(self.n_windows),
            "n_model_states": int(self.n_model_states),
            "system_diagnosis": self.system_diagnosis,
            "sensor_diagnoses": {
                str(sensor): [str(cat), str(kind), float(confidence)]
                for sensor, (cat, kind, confidence)
                in self.sensor_diagnoses.items()
            },
            "ground_truth": {
                str(sensor): str(kind)
                for sensor, kind in self.ground_truth.items()
            },
            "n_raw_alarms": int(self.n_raw_alarms),
            "n_tracks": int(self.n_tracks),
            "correct_model_labels": list(self.correct_model_labels),
            "digest": self.digest,
            "error": self.error,
            "attempts": int(self.attempts),
        }

    @classmethod
    def from_json_dict(
        cls, payload: Mapping[str, object]
    ) -> "ScenarioOutcome":
        """Inverse of :meth:`to_json_dict` (journal resume path)."""
        return cls(
            name=str(payload["name"]),
            n_days=int(payload["n_days"]),
            seed=int(payload["seed"]),
            n_windows=int(payload["n_windows"]),
            n_model_states=int(payload["n_model_states"]),
            system_diagnosis=str(payload["system_diagnosis"]),
            sensor_diagnoses={
                int(sensor): (str(entry[0]), str(entry[1]), float(entry[2]))
                for sensor, entry
                in dict(payload["sensor_diagnoses"]).items()
            },
            ground_truth={
                int(sensor): str(kind)
                for sensor, kind in dict(payload["ground_truth"]).items()
            },
            n_raw_alarms=int(payload["n_raw_alarms"]),
            n_tracks=int(payload["n_tracks"]),
            correct_model_labels=tuple(
                str(label) for label in payload["correct_model_labels"]
            ),
            digest=str(payload["digest"]),
            error=str(payload.get("error", "")),
            attempts=int(payload.get("attempts", 1)),
        )


def _summarize_pipeline(
    pipeline: DetectionPipeline,
    name: str,
    n_days: int,
    seed: int,
    ground_truth: Dict[int, str],
    from_cache: bool = False,
) -> ScenarioOutcome:
    """Condense a finished pipeline into a :class:`ScenarioOutcome`."""
    diagnoses = {
        sensor_id: (
            diagnosis.category.value,
            diagnosis.anomaly_type.value,
            float(diagnosis.confidence),
        )
        for sensor_id, diagnosis in pipeline.diagnose_all().items()
    }
    model = pipeline.correct_model()
    return ScenarioOutcome(
        name=name,
        n_days=n_days,
        seed=seed,
        n_windows=pipeline.n_windows,
        n_model_states=pipeline.clusterer.n_states if pipeline.clusterer else 0,
        system_diagnosis=pipeline.system_diagnosis().anomaly_type.value,
        sensor_diagnoses=diagnoses,
        ground_truth=dict(ground_truth),
        n_raw_alarms=len(pipeline.alarm_generator.alarms),
        n_tracks=len(pipeline.tracks.tracks),
        correct_model_labels=tuple(model.label(s) for s in model.state_ids),
        digest=pipeline.digest(),
        from_cache=from_cache,
    )


def summarize_run(run: ScenarioRun, spec: Optional[ScenarioSpec] = None) -> ScenarioOutcome:
    """Condense a :class:`ScenarioRun` into a :class:`ScenarioOutcome`."""
    return _summarize_pipeline(
        run.pipeline,
        name=run.name,
        n_days=spec.n_days if spec else run.trace_config.n_days,
        seed=spec.seed if spec else run.trace_config.seed,
        ground_truth=dict(run.ground_truth),
    )


def _replay_entry(entry, spec: ScenarioSpec) -> ScenarioOutcome:
    """Replay one cached trace through a fresh pipeline.

    The hot path of a :class:`TraceCache` hit.  The delivered arrays
    are re-windowed columnar-style and the planted ground truth travels
    with the entry, so no simulation or campaign rebuild happens; the
    outcome matches a fresh run bit-for-bit (``from_cache`` aside).
    """
    from ..sensornet.collector import windows_from_arrays

    config = PipelineConfig()
    pipeline = DetectionPipeline(config)
    pipeline.process_windows_fast(
        windows_from_arrays(
            entry.timestamps,
            entry.sensor_ids,
            entry.values,
            config.window_minutes,
        )
    )
    return _summarize_pipeline(
        pipeline,
        name=entry.label or spec.name,
        n_days=spec.n_days,
        seed=spec.seed,
        ground_truth=entry.ground_truth,
        from_cache=True,
    )


def _run_scenario_spec(
    spec: ScenarioSpec, cache_dir: "Optional[Union[str, Path]]" = None
) -> ScenarioOutcome:
    """Worker entry point: build and summarise one scenario.

    Imported lazily to avoid the runner<->scenarios import cycle; runs
    in the worker process (or inline for ``n_jobs=1``).

    With a ``cache_dir``, a hit loads the stored delivered arrays and
    replays the pipeline over columnar windows — no simulation, no
    campaign rebuild (the planted ground truth travels with the entry).
    The outcome is identical to a fresh run (``from_cache`` aside);
    a miss generates the trace columnarly and stores its delivered
    arrays — byte-identical to the object-path oracle's
    ``Trace.to_arrays()``, so entries written by either stay valid.
    """
    from . import _SCENARIO_BUILDERS

    builder = _SCENARIO_BUILDERS.get(spec.name)
    if builder is None:
        raise KeyError(
            f"unknown scenario {spec.name!r}; "
            f"choose from {sorted(_SCENARIO_BUILDERS)}"
        )
    cache = None
    cache_spec = None
    if cache_dir is not None:
        from ..traces.cache import TraceCache, scenario_spec

        cache = TraceCache(Path(cache_dir))
        cache_spec = scenario_spec(spec.name, spec.n_days, spec.seed)
        entry = cache.load(cache_spec)
        if entry is not None:
            return _replay_entry(entry, spec)
    run = builder(n_days=spec.n_days, seed=spec.seed)
    if cache is not None and cache_spec is not None:
        timestamps, sensor_ids, values = run.columnar.delivered_arrays()
        cache.store(
            cache_spec,
            timestamps,
            sensor_ids,
            values,
            attribute_names=run.columnar.attribute_names,
            metadata=run.columnar.metadata,
            ground_truth=run.ground_truth,
            label=run.name,
        )
    return summarize_run(run, spec)


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` knob: None/0 -> all cores, floor at 1."""
    if n_jobs is None or n_jobs == 0:
        return os.cpu_count() or 1
    return max(1, int(n_jobs))


def campaign_spec_key(spec: ScenarioSpec) -> str:
    """Content hash identifying ``spec`` in journals and chaos draws.

    Same scheme as the :class:`~repro.traces.cache.TraceCache`: a
    SHA-256 over the canonical scenario spec dict, generator version
    included — so a behavioural change to trace generation retires
    journal entries exactly like it retires cache entries.
    """
    from ..traces.cache import canonical_spec_hash, scenario_spec

    return canonical_spec_hash(
        scenario_spec(spec.name, spec.n_days, spec.seed)
    )


@dataclass(frozen=True)
class _TaskPayload:
    """Everything one worker attempt needs (small and picklable)."""

    spec: ScenarioSpec
    key: str
    attempt: int
    cache_dir: "Optional[Union[str, Path]]"
    chaos: Optional[WorkerChaos]
    inline: bool


@dataclass
class _Task:
    """Orchestrator-side state of one spec's execution."""

    index: int
    spec: ScenarioSpec
    key: str
    attempt: int = 1
    #: Monotonic-clock deadline of the in-flight attempt.
    deadline: float = math.inf
    #: Monotonic-clock release time while backing off between retries.
    not_before: float = 0.0


@dataclass
class CampaignReport:
    """Outcomes plus the recovery bookkeeping of one campaign run."""

    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    #: Failed attempts that were retried (any failure kind).
    n_retries: int = 0
    #: Attempts declared hung after overrunning the task deadline.
    n_timeouts: int = 0
    #: Attempts lost to a dying worker process (SIGKILL/OOM/segfault),
    #: including innocent in-flight tasks the broken pool took down.
    n_worker_crashes: int = 0
    #: Times the worker pool was torn down and rebuilt.
    n_pool_rebuilds: int = 0
    #: Specs replayed from the journal instead of re-executed.
    n_journal_skips: int = 0

    @property
    def quarantined(self) -> List[ScenarioOutcome]:
        """Specs that failed every retry (placeholder outcomes)."""
        return [o for o in self.outcomes if o.quarantined]

    @property
    def ok(self) -> bool:
        """True when no spec was quarantined."""
        return not self.quarantined

    def stats_line(self) -> str:
        """Human-readable recovery counters for CLI output."""
        return (
            f"recovery: retries={self.n_retries} "
            f"timeouts={self.n_timeouts} "
            f"worker_crashes={self.n_worker_crashes} "
            f"pool_rebuilds={self.n_pool_rebuilds} "
            f"journal_skips={self.n_journal_skips} "
            f"quarantined={len(self.quarantined)}"
        )


def _run_scenario_task(
    payload: _TaskPayload,
) -> "Union[ScenarioOutcome, TaskError]":
    """Worker entry point: one attempt, failures returned not raised.

    Exceptions are converted to :class:`TaskError` records *inside* the
    worker so their tracebacks survive the process boundary verbatim.
    ``KeyboardInterrupt`` propagates (the orchestrator owns shutdown);
    a chaos-injected SIGKILL never returns at all and surfaces as
    ``BrokenProcessPool`` on the parent's future.
    """
    try:
        if payload.chaos is not None:
            payload.chaos.apply(
                payload.key, payload.attempt, inline=payload.inline
            )
        return _run_scenario_spec(payload.spec, cache_dir=payload.cache_dir)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        kind = "exception"
        if payload.chaos is not None:
            from ..resilience.chaos import SimulatedWorkerCrash

            if isinstance(exc, SimulatedWorkerCrash):
                kind = "worker-crash"
        return TaskError.from_exception(exc, kind)


def _spec_problem(spec: ScenarioSpec) -> Optional[str]:
    """Why ``spec`` cannot run, or None: checked before any attempt."""
    from . import _SCENARIO_BUILDERS

    if spec.name not in _SCENARIO_BUILDERS:
        return (
            f"unknown scenario {spec.name!r}; "
            f"choose from {sorted(_SCENARIO_BUILDERS)}"
        )
    if not isinstance(spec.n_days, numbers.Integral) or spec.n_days < 1:
        return f"n_days must be a positive integer, got {spec.n_days!r}"
    if not isinstance(spec.seed, numbers.Integral) or spec.seed < 0:
        return f"seed must be a non-negative integer, got {spec.seed!r}"
    return None


def _spec_fields(spec: ScenarioSpec) -> Dict[str, object]:
    return {"name": spec.name, "n_days": spec.n_days, "seed": spec.seed}


def _complete_task(
    task: _Task,
    outcome: ScenarioOutcome,
    journal: Optional[CampaignJournal],
    results: "List[Optional[ScenarioOutcome]]",
) -> None:
    outcome = replace(outcome, attempts=task.attempt)
    results[task.index] = outcome
    if journal is not None:
        journal.record_done(task.key, outcome.to_json_dict())


def _quarantine_task(
    task: _Task,
    error: TaskError,
    journal: Optional[CampaignJournal],
    results: "List[Optional[ScenarioOutcome]]",
) -> None:
    """Record a poison spec: placeholder outcome, never an exception."""
    outcome = ScenarioOutcome(
        name=task.spec.name,
        n_days=task.spec.n_days,
        seed=task.spec.seed,
        n_windows=0,
        n_model_states=0,
        system_diagnosis="",
        sensor_diagnoses={},
        ground_truth={},
        n_raw_alarms=0,
        n_tracks=0,
        correct_model_labels=(),
        digest="",
        error=error.describe(),
        attempts=task.attempt,
    )
    results[task.index] = outcome
    if journal is not None:
        journal.record_poisoned(task.key, outcome.error, task.attempt)


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down hard, reclaiming every worker process.

    ``shutdown(wait=False)`` alone would orphan a hung or chaos-struck
    worker until its sleep ran out; terminating (and, as a last resort,
    killing) the worker processes is what actually frees them after a
    deadline overrun or a Ctrl-C.
    """
    worker_map = getattr(pool, "_processes", None)
    processes = list(worker_map.values()) if worker_map else []
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - already-broken pools
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in processes:
        try:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
        except Exception:  # pragma: no cover - already dead
            pass


class _InlineExecutor:
    """In-process stand-in for the pool (``n_jobs=1`` / a single task).

    ``submit`` runs the task to completion and hands back a finished
    future, so no deadline can fire and the pool is never rebuilt.
    """

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def _execute(
    tasks: List[_Task],
    n_workers: int,
    cache_dir: "Optional[Union[str, Path]]",
    policy: RetryPolicy,
    chaos: Optional[WorkerChaos],
    journal: Optional[CampaignJournal],
    results: "List[Optional[ScenarioOutcome]]",
    report: CampaignReport,
) -> None:
    """Fault-tolerant execution: one scheduling loop for every ``n_jobs``.

    Per-task futures with deadlines; at most ``n_workers`` in flight so
    a queued task's deadline never starts ticking before its worker
    does.  A worker death breaks the whole pool (``BrokenProcessPool``),
    so every in-flight task consumes an attempt — the culprit cannot be
    told from the victims — and the pool is rebuilt.  A deadline
    overrun tears the pool down too (the only way to reclaim a hung
    worker), but there the victims are identifiable and are requeued
    without consuming an attempt.

    With one worker the tasks run in this process through
    :class:`_InlineExecutor`: same retry/quarantine/journal policy,
    minus deadlines — chaos kills and hangs degrade to
    :class:`SimulatedWorkerCrash` failures.
    """
    clock = time.monotonic
    inline = n_workers == 1
    ready: "Deque[_Task]" = deque(tasks)
    waiting: List[_Task] = []
    in_flight: Dict[Future, _Task] = {}

    def new_pool() -> "Union[ProcessPoolExecutor, _InlineExecutor]":
        if inline:
            return _InlineExecutor()
        # Forked workers inherit this process's modules; loading
        # numpy.random here, once, spares every worker importing it
        # inside its first task (DESIGN.md §12.4).
        import numpy.random  # noqa: F401

        return ProcessPoolExecutor(max_workers=n_workers)

    pool = new_pool()

    def fail(task: _Task, error: TaskError) -> None:
        if error.kind == "timeout":
            report.n_timeouts += 1
        elif error.kind == "worker-crash":
            report.n_worker_crashes += 1
        if task.attempt > policy.max_retries:
            _quarantine_task(task, error, journal, results)
            return
        if journal is not None:
            journal.record_retry(
                task.key, task.attempt, error.kind, error.message
            )
        report.n_retries += 1
        task.attempt += 1
        task.not_before = clock() + policy.delay(task.key, task.attempt)
        waiting.append(task)

    def settle(future: Future, task: _Task) -> bool:
        """Fold one finished future into results; True if pool broke."""
        try:
            result = future.result()
        except BrokenProcessPool:
            fail(
                task,
                TaskError(
                    kind="worker-crash",
                    message="worker process died mid-task "
                    "(BrokenProcessPool)",
                ),
            )
            return True
        except Exception as exc:
            fail(task, TaskError.from_exception(exc))
            return False
        if isinstance(result, TaskError):
            fail(task, result)
        else:
            _complete_task(task, result, journal, results)
        return False

    def submit_ready() -> bool:
        """Fill free worker slots from ``ready``; True if pool broke."""
        while ready and len(in_flight) < n_workers:
            task = ready.popleft()
            if journal is not None:
                journal.record_start(
                    task.key, _spec_fields(task.spec), task.attempt
                )
            try:
                future = pool.submit(
                    _run_scenario_task,
                    _TaskPayload(
                        spec=task.spec,
                        key=task.key,
                        attempt=task.attempt,
                        cache_dir=cache_dir,
                        chaos=chaos,
                        inline=inline,
                    ),
                )
            except BrokenProcessPool:
                # A worker died since the last wait.  This task never
                # ran, so it goes back without using up an attempt.
                ready.appendleft(task)
                return True
            task.deadline = (
                clock() + policy.task_timeout
                if policy.task_timeout
                else math.inf
            )
            in_flight[future] = task
        return False

    def rebuild() -> None:
        nonlocal pool
        report.n_pool_rebuilds += 1
        _shutdown_pool(pool)
        pool = new_pool()

    try:
        while ready or waiting or in_flight:
            now = clock()
            if waiting:
                due = [t for t in waiting if t.not_before <= now]
                if due:
                    waiting[:] = [t for t in waiting if t.not_before > now]
                    ready.extend(sorted(due, key=lambda t: t.index))
            broken = submit_ready()
            if not broken:
                if not in_flight:
                    # Everyone is backing off: sleep to the first release.
                    pause = min(t.not_before for t in waiting) - clock()
                    if pause > 0:
                        time.sleep(pause)
                    continue
                horizon = min(t.deadline for t in in_flight.values())
                if waiting:
                    horizon = min(
                        horizon, min(t.not_before for t in waiting)
                    )
                timeout = min(max(horizon - clock(), 0.0), 0.5)
                done, _ = futures_wait(
                    set(in_flight),
                    timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    broken |= settle(future, in_flight.pop(future))
            if broken:
                # The pool died under the remaining in-flight tasks.
                # Any that raced to completion first still have results;
                # the rest consume an attempt (chaos draws are
                # per-attempt, so a victim retries with fresh luck).
                for future, task in list(in_flight.items()):
                    if future.done():
                        settle(future, task)
                    else:
                        fail(
                            task,
                            TaskError(
                                kind="worker-crash",
                                message="worker pool broke under this "
                                "task",
                            ),
                        )
                in_flight.clear()
                rebuild()
                continue

            now = clock()
            overdue = [
                task
                for future, task in in_flight.items()
                if task.deadline <= now and not future.done()
            ]
            if overdue:
                # Hung workers are only reclaimable by pool teardown.
                for future, task in list(in_flight.items()):
                    if future.done():
                        settle(future, task)
                    elif task.deadline <= now:
                        fail(
                            task,
                            TaskError(
                                kind="timeout",
                                message=(
                                    "no result within "
                                    f"{policy.task_timeout:.1f}s deadline "
                                    f"(attempt {task.attempt})"
                                ),
                            ),
                        )
                    else:
                        # Innocent bystander of the teardown: requeue
                        # without consuming an attempt.
                        ready.append(task)
                in_flight.clear()
                rebuild()
    except KeyboardInterrupt:
        # Graceful Ctrl-C: cancel pending work, reclaim every worker,
        # leave the journal flushed so the campaign is resumable.
        _shutdown_pool(pool)
        if journal is not None:
            journal.flush()
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def run_campaign(
    specs: Sequence[ScenarioSpec],
    n_jobs: Optional[int] = None,
    cache_dir: "Optional[Union[str, Path]]" = None,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[WorkerChaos] = None,
    journal_dir: "Optional[Union[str, Path]]" = None,
) -> CampaignReport:
    """Run a campaign fault-tolerantly; outcomes in submission order.

    Determinism contract: every worker rebuilds its scenario from the
    spec's own seed (nothing is shared across workers), and outcomes
    are collected in spec order — so the result is identical for any
    ``n_jobs`` and for any interleaving of crashes, retries, and
    resumes; only the ``attempts`` bookkeeping (excluded from
    equality) differs.

    ``policy`` governs retries, backoff, and per-task deadlines;
    ``chaos`` injects seeded worker-level faults (soak testing);
    ``journal_dir`` enables the durable write-ahead log — a rerun
    against the same directory replays completed specs exactly-once
    and executes only the remainder.  ``cache_dir`` enables the
    scenario trace cache: each worker replays a hit from the stored
    entry and simulates a miss, storing its trace for later campaigns.
    A spec that fails every retry is quarantined: its placeholder
    outcome (``error`` set, no digest) keeps the campaign order, and
    :attr:`CampaignReport.quarantined` surfaces it — a poison spec
    never discards finished results.  A spec that cannot run at all
    (unknown scenario name, ``n_days < 1``, negative seed) is
    quarantined before dispatch as ``invalid-spec``, with no attempt,
    retry or backoff.
    """
    specs = list(specs)
    policy = policy or RetryPolicy()
    n_jobs = resolve_n_jobs(n_jobs)
    report = CampaignReport()
    journal = None
    if journal_dir is not None:
        from .journal import CampaignJournal

        journal = CampaignJournal(journal_dir)
    keys = [campaign_spec_key(spec) for spec in specs]
    results: "List[Optional[ScenarioOutcome]]" = [None] * len(specs)
    if journal is not None:
        completed = journal.completed_outcomes()
        for index, key in enumerate(keys):
            payload = completed.get(key)
            if payload is None:
                continue
            try:
                results[index] = ScenarioOutcome.from_json_dict(payload)
            except (KeyError, TypeError, ValueError):
                continue  # malformed journal outcome: re-run the spec
            report.n_journal_skips += 1
    try:
        tasks = []
        for index, (spec, key) in enumerate(zip(specs, keys)):
            if results[index] is not None:
                continue
            task = _Task(index=index, spec=spec, key=key)
            problem = _spec_problem(spec)
            if problem is None:
                tasks.append(task)
            else:
                # It would fail the same way on every attempt: no
                # worker, no retry, no backoff.
                _quarantine_task(
                    task,
                    TaskError(kind="invalid-spec", message=problem),
                    journal,
                    results,
                )
        if tasks:
            _execute(
                tasks,
                min(n_jobs, len(tasks)),
                cache_dir,
                policy,
                chaos,
                journal,
                results,
                report,
            )
    finally:
        if journal is not None:
            journal.close()
    report.outcomes = [
        outcome for outcome in results if outcome is not None
    ]
    return report
