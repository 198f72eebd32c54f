"""Perf-regression harness: time the hot kernels, compare, fail on drift.

``python -m repro bench`` measures the three hot paths the vectorisation
work targets — full-pipeline window processing, online HMM counting
updates, and clusterer window updates — plus the wall-clock of a small
scenario campaign run serially vs through the parallel fan-out.  Results
go to ``BENCH_pipeline.json``; ``--check`` compares the fresh numbers
against the committed ones and exits non-zero when a kernel regressed
beyond ``--tolerance``.

Workloads deliberately mirror ``benchmarks/test_perf_pipeline.py`` so
the pytest-benchmark suite and this harness report comparable numbers.
Each kernel is timed best-of-``repeats`` (minimum wall-clock), which is
the standard way to suppress scheduler noise on shared CI runners.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

#: Metrics ``--check`` guards, all in "lower is better" units.
CHECKED_METRICS = (
    "pipeline_us_per_window",
    "fused_pipeline_us_per_window",
    "fleet_us_per_deployment_window",
    "fleet_isolated_us_per_deployment_window",
    "hmm_update_us",
    "clusterer_update_us",
    "filter_bank_us",
    "trace_gen_us_per_window",
)

#: Hand-recorded timings of the same workloads at the pre-optimisation
#: commits (abd7625 for the kernel metrics; the object-path generator
#: for trace generation; the scalar per-window paths for the fused
#: pipeline and filter-bank metrics), kept so the JSON shows the
#: optimisation headroom without needing to rebuild the old code.
PRE_OPTIMIZATION_BASELINE = {
    "pipeline_us_per_window": 614.1,
    "fused_pipeline_us_per_window": 614.1,
    # Per-deployment-window cost of N=64 independent fused runs on the
    # fleet regime workload before the batched engine (and the steady
    # pair-bound inf fix) landed.
    "fleet_us_per_deployment_window": 20.6,
    # Before the isolation layer, a fault-isolated fleet *was* N
    # independent fused runs (full per-tenant blast separation but no
    # batching), so the same 20.6 us/deployment-window applies.
    "fleet_isolated_us_per_deployment_window": 20.6,
    "hmm_update_us": 5.67,
    "clusterer_update_us": 483.3,
    "filter_bank_us": 20.8,
    "trace_gen_us_per_window": 4674.2,
}

DEFAULT_OUTPUT = "BENCH_pipeline.json"
DEFAULT_TOLERANCE = 0.30


@contextmanager
def _pinned_threads(limit: int = 1):
    """Pin BLAS/OpenMP pool sizes for the duration of the timing loops.

    Kernel timings on shared CI runners otherwise wander with whatever
    thread count the BLAS picked at import time (and oversubscribe the
    campaign benches, whose parallelism lives in processes).  Yields
    True when a real pin was applied, False when ``threadpoolctl`` is
    unavailable and the run proceeds unpinned — timing must degrade,
    never fail, on a lean interpreter.
    """
    try:
        from threadpoolctl import threadpool_limits
    except Exception:
        yield False
        return
    with threadpool_limits(limits=limit):
        yield True


def _blas_info() -> Dict[str, object]:
    """Best-effort BLAS/LAPACK identification from numpy's build config."""
    try:
        config = np.show_config(mode="dicts")
        dependencies = config.get("Build Dependencies", {})
        info: Dict[str, object] = {}
        for lib in ("blas", "lapack"):
            entry = dependencies.get(lib)
            if isinstance(entry, dict):
                info[lib] = {
                    "name": entry.get("name"),
                    "version": entry.get("version"),
                }
        return info
    except Exception:  # pragma: no cover - older numpy without dicts mode
        return {}


def _threadpool_info() -> "Optional[List[Dict[str, object]]]":
    """Live thread-pool inventory via threadpoolctl, when installed."""
    try:
        from threadpoolctl import threadpool_info
    except Exception:
        return None
    try:
        return [
            {
                "api": pool.get("internal_api"),
                "prefix": pool.get("prefix"),
                "num_threads": pool.get("num_threads"),
            }
            for pool in threadpool_info()
        ]
    except Exception:  # pragma: no cover - introspection failure
        return None


def _numba_version() -> "Optional[str]":
    try:
        import numba

        return str(numba.__version__)
    except Exception:
        return None


def environment_info(threads_pinned: bool = False) -> Dict[str, object]:
    """The bench ``environment`` block: toolchain + threading context.

    Records everything needed to interpret a timing delta between two
    bench files: interpreter and numpy versions, which BLAS numpy was
    built against, the live thread pools, the numba version actually
    driving the compiled backend (null on fallback), and the thread-
    count environment pins in effect.
    """
    from .backend import numba_available

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": _numba_version(),
        "numba_available": numba_available(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas": _blas_info(),
        "threadpools": _threadpool_info(),
        "thread_env": {
            key: os.environ.get(key)
            for key in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS",
            )
        },
        "threads_pinned_during_timing": threads_pinned,
    }


def _best_of(repeats: int, run: Callable[[], object]) -> float:
    """Minimum wall-clock seconds of ``run`` over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_windows(n_windows: int = 200, n_sensors: int = 10, seed: int = 0):
    """The synthetic diurnal workload from benchmarks/test_perf_pipeline."""
    from .sensornet import ObservationWindow, SensorMessage

    rng = np.random.default_rng(seed)
    windows = []
    for index in range(1, n_windows + 1):
        phase = 2 * np.pi * index / 24.0
        truth = np.array([21.0 - 10 * np.cos(phase), 75.0 + 20 * np.cos(phase)])
        messages = tuple(
            SensorMessage(
                sensor_id=s,
                timestamp=(index - 1) * 60.0 + 1.0,
                attributes=tuple(truth + rng.normal(0, 0.35, 2)),
            )
            for s in range(n_sensors)
        )
        windows.append(
            ObservationWindow(
                index=index,
                start_minutes=(index - 1) * 60.0,
                end_minutes=index * 60.0,
                messages=messages,
            )
        )
    return windows


def bench_pipeline(repeats: int = 3, n_windows: int = 200) -> float:
    """Full-pipeline cost in microseconds per processed window."""
    from . import DetectionPipeline, PipelineConfig

    windows = _bench_windows(n_windows=n_windows)

    def run() -> None:
        pipeline = DetectionPipeline(PipelineConfig())
        for window in windows:
            pipeline.process_window(window)

    return _best_of(repeats, run) / n_windows * 1e6


def _fused_workload(n_windows: int = 200, n_sensors: int = 10):
    """The diurnal workload as columnar :class:`ArrayWindow` views.

    The fused fast path only engages for array-backed windows (message
    windows take the compatibility slow lane), so the fused benchmarks
    flatten the message workload to ``(timestamp, sensor, value)``
    arrays in canonical trace order first.
    """
    from . import PipelineConfig
    from .sensornet.collector import windows_from_arrays

    windows = _bench_windows(n_windows=n_windows, n_sensors=n_sensors)
    ts: List[float] = []
    sids: List[int] = []
    vals: List[tuple] = []
    for window in windows:
        for message in window.messages:
            ts.append(message.timestamp)
            sids.append(message.sensor_id)
            vals.append(message.attributes)
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


def bench_fused_pipeline(repeats: int = 3, n_windows: int = 200) -> float:
    """Fused whole-trace path cost in microseconds per window.

    Same workload as :func:`bench_pipeline`, run through
    ``process_windows_fast`` so the struct-of-arrays filter bank,
    incremental clustering, and steady-stretch certification all
    engage.  The parity suite pins this path bit-identical to the
    per-window oracle, so the two metrics are directly comparable.
    """
    from . import DetectionPipeline, PipelineConfig

    array_windows = _fused_workload(n_windows=n_windows)

    def run() -> None:
        pipeline = DetectionPipeline(PipelineConfig())
        pipeline.process_windows_fast(array_windows)

    return _best_of(repeats, run) / n_windows * 1e6


def _fleet_workload(
    seed: int,
    n_windows: int = 400,
    dwell: int = 40,
    noise: float = 0.25,
    n_sensors: int = 10,
):
    """One tenant's trace for the fleet bench: two-regime telemetry.

    Each deployment alternates between two well-separated operating
    regimes (think heating/cooling plant states) every ``dwell``
    windows, with per-sensor Gaussian noise.  This is the workload the
    fleet engine is built for — long certified steady stretches broken
    by occasional regime changes — and both the batched engine and the
    per-tenant baseline are timed on exactly these windows.
    """
    from . import PipelineConfig
    from .sensornet.collector import windows_from_arrays

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


def bench_fleet(
    n_list: "tuple[int, ...]" = (1, 4, 16, 64),
    repeats: int = 2,
    n_windows: int = 400,
    dwell: int = 40,
    noise: float = 0.25,
) -> Dict[str, object]:
    """Amortized fleet cost per deployment-window vs fleet size.

    For each fleet size ``n`` the same per-tenant regime traces (seeds
    ``0..n-1``) are run two ways: one ``FleetEngine`` advancing all
    tenants through shared batched kernels, and ``n`` independent
    ``process_windows_fast`` runs (the per-tenant baseline).  The
    per-tenant digests of the two runs must match bit-for-bit at every
    size — the speedup is only meaningful if the batched engine is
    exact.
    """
    from . import DetectionPipeline, PipelineConfig
    from .fleet import FleetEngine

    curve = []
    parity = True
    for n in n_list:
        loads = [
            _fleet_workload(
                seed, n_windows=n_windows, dwell=dwell, noise=noise
            )
            for seed in range(n)
        ]
        base_best = float("inf")
        base_pipes: List[DetectionPipeline] = []
        for _ in range(repeats):
            start = time.perf_counter()
            total = 0
            base_pipes = []
            for seed in range(n):
                pipeline = DetectionPipeline(PipelineConfig())
                total += pipeline.process_windows_fast(loads[seed])
                base_pipes.append(pipeline)
            base_best = min(
                base_best, (time.perf_counter() - start) / total * 1e6
            )
        fleet_best = float("inf")
        engine = None
        for _ in range(repeats):
            pipelines = [
                DetectionPipeline(PipelineConfig()) for _ in range(n)
            ]
            engine = FleetEngine.from_pipelines(pipelines)
            start = time.perf_counter()
            total = engine.process_windows(loads)
            fleet_best = min(
                fleet_best, (time.perf_counter() - start) / total * 1e6
            )
        size_parity = [a.digest() for a in base_pipes] == engine.digests()
        parity = parity and size_parity
        curve.append(
            {
                "n": n,
                "fleet_us_per_deployment_window": round(fleet_best, 2),
                "baseline_us_per_deployment_window": round(base_best, 2),
                "speedup": round(base_best / fleet_best, 2),
                "digest_parity": size_parity,
            }
        )
    if not parity:  # pragma: no cover - batching correctness violation
        raise AssertionError(
            "fleet engine diverged from independent per-tenant runs"
        )
    return {
        "workload": {
            "n_windows": n_windows,
            "dwell": dwell,
            "noise": noise,
            "n_sensors": 10,
        },
        "curve": curve,
        "fleet_us_per_deployment_window": curve[-1][
            "fleet_us_per_deployment_window"
        ],
        "digest_parity": parity,
    }


def bench_filter_bank(
    repeats: int = 5, n_sensors: int = 50, n_windows: int = 2000
) -> Dict[str, object]:
    """Alarm-filter bank cost per window, scalar loop vs vector bank.

    Feeds an identical sparse raw-alarm stream to a per-sensor
    :class:`FilterBank` and a struct-of-arrays
    :class:`VectorFilterBank`; the checked ``filter_bank_us`` metric is
    the vector bank's per-window cost.
    """
    from .core.filtering import FilterBank, KOfNFilter, VectorFilterBank

    rng = np.random.default_rng(3)
    sensor_ids = np.arange(n_sensors)
    raws = rng.random((n_windows, n_sensors)) < 0.05
    raw_dicts = [
        {int(s): bool(r) for s, r in zip(sensor_ids, row)} for row in raws
    ]

    def run_scalar() -> None:
        bank = FilterBank(factory=KOfNFilter)
        for index, raw_by_sensor in enumerate(raw_dicts):
            bank.update(index, raw_by_sensor)

    def run_vector() -> None:
        bank = VectorFilterBank.from_prototype(KOfNFilter())
        for index in range(n_windows):
            bank.update_batch(
                index, sensor_ids, raws[index], assume_sorted=True
            )

    scalar_us = _best_of(repeats, run_scalar) / n_windows * 1e6
    vector_us = _best_of(repeats, run_vector) / n_windows * 1e6
    return {
        "n_sensors": n_sensors,
        "n_windows": n_windows,
        "scalar_us_per_window": round(scalar_us, 2),
        "vector_us_per_window": round(vector_us, 2),
        "speedup": round(scalar_us / vector_us, 2),
    }


def profile_fused(n_windows: int = 200, runs: int = 10, top: int = 25) -> str:
    """cProfile the fused pipeline; top-``top`` rows by cumulative time.

    Backs ``repro bench --profile``: profiles ``runs`` fresh pipelines
    over the fused benchmark workload and renders the standard pstats
    cumulative table, so hot-path regressions can be localised without
    leaving the harness.
    """
    import cProfile
    import io
    import pstats

    from . import DetectionPipeline, PipelineConfig

    array_windows = _fused_workload(n_windows=n_windows)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(runs):
        pipeline = DetectionPipeline(PipelineConfig())
        pipeline.process_windows_fast(array_windows)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    header = (
        f"cProfile: {runs} fused runs x {n_windows} windows, "
        f"top {top} by cumulative time"
    )
    return header + "\n" + stream.getvalue().rstrip()


def bench_hmm_update(repeats: int = 5, n_updates: int = 1000) -> float:
    """Online HMM counting-update cost in microseconds per observation."""
    from .core.online_hmm import OnlineHMM

    rng = np.random.default_rng(1)
    pairs = [
        (int(rng.integers(0, 6)), int(rng.integers(0, 8)))
        for _ in range(n_updates)
    ]

    def run() -> None:
        hmm = OnlineHMM()
        for state, symbol in pairs:
            hmm.observe(state, symbol)

    return _best_of(repeats, run) / n_updates * 1e6


def bench_clusterer_update(repeats: int = 3, n_batches: int = 200) -> float:
    """Clusterer window-update cost in microseconds per batch of 10."""
    from .core.clustering import OnlineStateClusterer

    rng = np.random.default_rng(2)
    batches = [rng.normal([20.0, 70.0], 5.0, size=(10, 2)) for _ in range(n_batches)]

    def run() -> None:
        clusterer = OnlineStateClusterer(
            initial_vectors=[np.array([20.0, 70.0])],
            alpha=0.1,
            spawn_threshold=10.0,
            merge_threshold=5.0,
        )
        for batch in batches:
            clusterer.update(batch)

    return _best_of(repeats, run) / n_batches * 1e6


def bench_campaign(
    n_jobs: Optional[int] = None, n_days: int = 3, seed: int = 2003
) -> Dict[str, object]:
    """Wall-clock of a 4-scenario campaign, serial vs parallel.

    Uses the fault scenarios only (the attack ones run an extra clean
    reference simulation each, which would dominate the measurement).
    """
    from .experiments.runner import (
        ScenarioSpec,
        resolve_n_jobs,
        run_scenarios_parallel,
    )

    names = ["clean", "stuck_at", "calibration", "additive"]
    specs = [ScenarioSpec(name, n_days=n_days, seed=seed) for name in names]
    n_jobs = resolve_n_jobs(n_jobs)
    cpu_count = os.cpu_count() or 1

    start = time.perf_counter()
    serial = run_scenarios_parallel(specs, n_jobs=1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_scenarios_parallel(specs, n_jobs=n_jobs)
    parallel_seconds = time.perf_counter() - start

    if serial != parallel:  # pragma: no cover - determinism violation
        raise AssertionError("parallel campaign diverged from serial run")
    # On a single-core host the "parallel" run measures pure process-
    # pool overhead, not a speedup; reporting the ratio there reads as
    # a parallelisation regression when it is a hardware fact.
    speedup = (
        round(serial_seconds / parallel_seconds, 2)
        if cpu_count > 1
        else None
    )
    return {
        "scenarios": names,
        "n_days": n_days,
        "seed": seed,
        "n_jobs": n_jobs,
        "n_workers": n_jobs,
        "cpu_count": cpu_count,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": speedup,
    }


def bench_trace_generation(
    repeats: int = 3, n_days: int = 3
) -> Dict[str, object]:
    """Scenario-generation cost, object path vs columnar fast path.

    Both paths generate the identical clean GDI deployment (the parity
    suite pins them bit-for-bit); the metric is microseconds of
    generation time per downstream pipeline window so it composes with
    ``pipeline_us_per_window``.
    """
    from . import PipelineConfig
    from .traces import (
        GDITraceConfig,
        generate_gdi_trace,
        generate_gdi_trace_columnar,
    )

    config = GDITraceConfig(n_days=n_days)
    window_minutes = PipelineConfig().window_minutes
    n_windows = int(config.duration_minutes // window_minutes)

    object_seconds = _best_of(repeats, lambda: generate_gdi_trace(config))
    columnar_seconds = _best_of(
        repeats, lambda: generate_gdi_trace_columnar(config)
    )
    object_us = object_seconds / n_windows * 1e6
    columnar_us = columnar_seconds / n_windows * 1e6
    return {
        "n_days": n_days,
        "n_windows": n_windows,
        "object_us_per_window": round(object_us, 1),
        "columnar_us_per_window": round(columnar_us, 1),
        "speedup": round(object_us / columnar_us, 2),
    }


def bench_recovery(
    n_days: int = 2, seed: int = 2003, kill_probability: float = 0.2
) -> Dict[str, object]:
    """Fault-recovery overhead of the campaign runtime (schema 4).

    Runs the same small campaign through the pool twice — once clean,
    once with seeded worker-kill chaos — and reports the wall-clock
    overhead of surviving the kills (pool rebuilds + retried attempts)
    alongside the recovery counters.  The chaos run's digests must be
    bit-identical to the clean run's for every non-quarantined spec;
    divergence is a correctness bug, not a perf number.
    """
    from .experiments.retry import RetryPolicy
    from .experiments.runner import ScenarioSpec, run_campaign
    from .resilience.chaos import WorkerChaos

    names = ["clean", "stuck_at", "calibration"]
    specs = [ScenarioSpec(name, n_days=n_days, seed=seed) for name in names]

    start = time.perf_counter()
    clean = run_campaign(specs, n_jobs=2)
    clean_seconds = time.perf_counter() - start

    # Seed chosen so the deterministic draws actually contain kills
    # (two first-attempt kills across the three specs): a kill-free
    # draw would measure nothing.
    chaos = WorkerChaos(kill_probability=kill_probability, seed=28)
    policy = RetryPolicy(max_retries=6, backoff_base=0.01)
    start = time.perf_counter()
    battered = run_campaign(specs, n_jobs=2, chaos=chaos, policy=policy)
    chaos_seconds = time.perf_counter() - start

    for before, after in zip(clean.outcomes, battered.outcomes):
        if not after.quarantined and before.digest != after.digest:
            # pragma: no cover - recovery correctness violation
            raise AssertionError(
                f"chaos campaign diverged from clean run on {before.name}"
            )
    return {
        "scenarios": names,
        "n_days": n_days,
        "kill_probability": kill_probability,
        "clean_seconds": round(clean_seconds, 3),
        "chaos_seconds": round(chaos_seconds, 3),
        "overhead_ratio": round(chaos_seconds / clean_seconds, 2),
        "retries": battered.n_retries,
        "worker_crashes": battered.n_worker_crashes,
        "pool_rebuilds": battered.n_pool_rebuilds,
        "quarantined": len(battered.quarantined),
    }


def bench_fleet_degradation(
    n_tenants: int = 12,
    n_windows: int = 400,
    checkpoint_interval: int = 200,
    repeats: int = 10,
) -> Dict[str, object]:
    """Fault-isolation overhead of the resilient fleet runtime (schema 6).

    Two measurements:

    * **No-fault overhead.**  The same regime traces run through a bare
      ``FleetEngine`` and a ``ResilientFleetEngine`` (epoch checkpoints,
      health tracking, containment machinery armed but never firing).
      Runs alternate raw/isolated so both sample the same scheduler
      noise; per-tenant digests must match bit-for-bit — the overhead
      number is only meaningful if the isolated run is exact.  The
      checkpoint cadence is aligned to the workload's regime dwell
      (200 = 5 x 40-window dwells), the way an operator would pick it:
      an epoch boundary that coincides with a regime change tears down
      no certified steady stretch, so chunking costs almost nothing
      and the overhead is dominated by the per-epoch snapshots.
    * **Faulted containment.**  A seeded K-of-N poisoning run (via the
      chaos harness) reports what isolation buys: poisoned tenants
      quarantined and re-admitted while survivors stay bit-identical to
      clean solo runs.  Survivor divergence is a correctness bug, not a
      perf number.
    """
    from . import DetectionPipeline, PipelineConfig
    from .fleet import FleetEngine, ResilientFleetEngine
    from .resilience.fleet_chaos import run_fleet_chaos

    traces = [
        _fleet_workload(1000 + tid, n_windows=n_windows)
        for tid in range(n_tenants)
    ]
    total = n_tenants * n_windows

    def build():
        return [DetectionPipeline(PipelineConfig()) for _ in range(n_tenants)]

    # Collect before and disable GC during each timed run: the engines
    # discarded by earlier iterations otherwise trigger collections
    # inside the timing window, and that churn (not the isolation
    # layer) dominated the raw/isolated delta.
    def timed(engine):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            engine.process_windows(traces)
            return time.perf_counter() - start
        finally:
            gc.enable()

    # The overhead estimate is the median of per-iteration isolated/raw
    # ratios: each pair runs back-to-back, so slow machine states (CPU
    # steal on shared runners) cancel within a pair instead of skewing
    # two independent best-of minima sampled at different times.
    raw_best = float("inf")
    ratios = []
    raw_engine = iso_engine = None
    for _ in range(repeats):
        raw_engine = FleetEngine(build())
        raw_seconds = timed(raw_engine)
        raw_best = min(raw_best, raw_seconds)

        iso_engine = ResilientFleetEngine(
            build(), checkpoint_interval=checkpoint_interval
        )
        ratios.append(timed(iso_engine) / raw_seconds)
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]

    if raw_engine.digests() != iso_engine.digests():
        # pragma: no cover - isolation correctness violation
        raise AssertionError(
            "resilient fleet diverged from bare engine on a no-fault run"
        )

    chaos = run_fleet_chaos(
        n_tenants=8,
        n_poisoned=2,
        kinds=("exploding", "malformed", "exception"),
        seed=3,
        n_windows=240,
        checkpoint_interval=64,
        probation=12,
    )
    if not chaos.survivors_ok:
        # pragma: no cover - isolation correctness violation
        raise AssertionError(
            "fleet-chaos survivors diverged from clean solo runs"
        )
    counters = chaos.health["counters"]
    raw_us = raw_best / total * 1e6
    # Derived from the paired-ratio estimate so the reported pair stays
    # self-consistent with overhead_pct.
    iso_us = raw_us * median_ratio
    overhead = iso_engine.overhead
    return {
        "n_tenants": n_tenants,
        "n_windows": n_windows,
        "checkpoint_interval": checkpoint_interval,
        "raw_us_per_deployment_window": round(raw_us, 2),
        "isolated_us_per_deployment_window": round(iso_us, 2),
        "overhead_pct": round((median_ratio - 1.0) * 100, 1),
        "digest_parity": True,
        "isolation_overhead_seconds": {
            key: round(value, 4) for key, value in overhead.items()
        },
        "faulted": {
            "n_tenants": chaos.n_tenants,
            "n_poisoned": len(chaos.victims),
            "kinds": list(chaos.kinds),
            "quarantined": counters["quarantines"],
            "readmitted": counters["readmissions"],
            "rollbacks": counters["rollbacks"],
            "survivors_bit_identical": chaos.survivors_ok,
            "all_faults_handled": chaos.ok,
        },
    }


def bench_backends(repeats: int = 5) -> Dict[str, object]:
    """numpy vs compiled per-kernel cost on the three ported hot paths.

    Times each registry kernel on representative shapes under both
    backends (after a warm-up call so JIT compilation never lands in a
    timing), and pins cross-backend correctness with a short fused run
    whose digest must be identical under ``backend="numpy"`` and
    ``backend="compiled"``.  On a runner without numba the "compiled"
    column measures the numpy fallback (flavor recorded), so speedups
    hover around 1.0 by construction.
    """
    import warnings

    from . import DetectionPipeline, PipelineConfig
    from .backend import get_backend, numba_available

    numpy_backend = get_backend("numpy")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        compiled = get_backend("compiled")

    rng = np.random.default_rng(11)
    n_rows, n_groups, d = 4000, 400, 2
    keys = np.sort(rng.integers(0, n_groups, n_rows)).astype(np.int64)
    weights = rng.normal(size=(n_rows, d))
    points = rng.normal(size=(64, d))
    matrix = rng.normal(size=(24, d))
    g_obs = rng.normal(size=(16, 40, d))
    g_states = rng.normal(size=(16, 24, d))
    n_lanes = 512
    buf = rng.integers(0, 2, (n_lanes, 5)).astype(np.int64)
    raws = rng.random(n_lanes) < 0.3
    count = buf.sum(axis=1)
    active = count >= 3
    llr = rng.normal(size=n_lanes)
    g_scores = np.abs(rng.normal(size=n_lanes))

    workloads = {
        "grouped_sums": lambda k: k.grouped_sums(keys, weights, n_groups),
        "pairwise_distances": lambda k: k.pairwise_distances(points, matrix),
        "batched_distances": lambda k: k.batched_distances(g_obs, g_states),
        "k_of_n_lockstep": lambda k: k.k_of_n_lockstep(
            buf.copy(), 2, raws, count.copy(), active.copy(), 3
        ),
        "sprt_step": lambda k: k.sprt_step(
            llr, raws, active, 1.5, -0.7, 2.2, -2.2
        ),
        "cusum_step": lambda k: k.cusum_step(g_scores, raws, active, 0.5, 4.0),
    }
    kernels: Dict[str, object] = {}
    for name, call in workloads.items():
        row: Dict[str, object] = {}
        for label, backend in (("numpy", numpy_backend), ("compiled", compiled)):
            call(backend)  # warm-up: JIT compile outside the timing
            row[f"{label}_us"] = round(
                _best_of(repeats, lambda: call(backend)) * 1e6, 2
            )
        row["speedup"] = round(row["numpy_us"] / max(row["compiled_us"], 1e-9), 2)
        kernels[name] = row

    from .traces import GDITraceConfig, generate_gdi_trace_columnar

    trace = generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=7))
    digests = {}
    for label in ("numpy", "compiled"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pipeline = DetectionPipeline(PipelineConfig(backend=label))
        pipeline.process_trace_fast(trace)
        digests[label] = pipeline.digest_metadata()
    parity = digests["numpy"]["digest"] == digests["compiled"]["digest"]
    if not parity:  # pragma: no cover - backend correctness violation
        raise AssertionError("compiled backend diverged from numpy digests")
    return {
        "numba_available": numba_available(),
        "flavors": {"numpy": numpy_backend.flavor, "compiled": compiled.flavor},
        "kernels": kernels,
        "digest_parity": parity,
        "digest_metadata": digests,
    }


def bench_parallel_scaling(
    max_workers: Optional[int] = None, n_days: int = 3, seed: int = 2003
) -> Dict[str, object]:
    """Campaign wall-clock vs worker count over shared-memory traces.

    Pre-populates a throwaway cache with a serial cold pass, measures a
    serial hot pass as the baseline, then sweeps worker counts (always
    including 1) through :func:`run_campaign`'s pool + shared-memory
    path.  Every point must reproduce the serial digests bit-for-bit;
    efficiency is ``serial / (workers * wall)``.  The ``n_workers=1``
    point runs the same inline path as the baseline, so it differs from
    ``serial_seconds`` only by timing noise.
    """
    from .experiments.runner import ScenarioSpec, run_campaign

    names = ["clean", "stuck_at", "calibration", "additive"]
    specs = [ScenarioSpec(name, n_days=n_days, seed=seed) for name in names]
    cpu_count = os.cpu_count() or 1
    limit = max_workers or max(min(cpu_count, 4), 1)
    workers = sorted({1, *range(2, limit + 1)})

    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as cache_dir:
        run_campaign(specs, n_jobs=1, cache_dir=cache_dir)  # populate cache

        start = time.perf_counter()
        serial = run_campaign(specs, n_jobs=1, cache_dir=cache_dir)
        serial_seconds = time.perf_counter() - start
        serial_digests = [o.digest for o in serial.outcomes]

        curve = []
        for n_workers in workers:
            start = time.perf_counter()
            report = run_campaign(specs, n_jobs=n_workers, cache_dir=cache_dir)
            wall = time.perf_counter() - start
            if [o.digest for o in report.outcomes] != serial_digests:
                # pragma: no cover - parallelism correctness violation
                raise AssertionError(
                    f"n_workers={n_workers} campaign diverged from serial"
                )
            curve.append(
                {
                    "n_workers": n_workers,
                    "seconds": round(wall, 3),
                    "speedup": round(serial_seconds / wall, 2),
                    "efficiency": round(
                        serial_seconds / (n_workers * wall), 2
                    ),
                }
            )
    return {
        "scenarios": names,
        "n_days": n_days,
        "seed": seed,
        "cpu_count": cpu_count,
        "serial_seconds": round(serial_seconds, 3),
        "curve": curve,
        "digest_parity": True,
    }


def run_bench(
    n_jobs: Optional[int] = None, repeats: int = 3
) -> Dict[str, object]:
    """Measure everything and assemble the BENCH_pipeline.json payload."""
    with _pinned_threads() as threads_pinned:
        trace_generation = bench_trace_generation(repeats=repeats)
        filter_bank = bench_filter_bank(repeats=max(repeats, 5))
        fleet = bench_fleet(repeats=max(repeats - 1, 2))
        fleet_degradation = bench_fleet_degradation()
        backend = bench_backends(repeats=max(repeats, 5))
        parallel_scaling = bench_parallel_scaling()
        pipeline_us = round(bench_pipeline(repeats=repeats), 1)
        fused_us = round(bench_fused_pipeline(repeats=max(repeats, 5)), 1)
        hmm_us = round(bench_hmm_update(repeats=max(repeats, 5)), 2)
        clusterer_us = round(bench_clusterer_update(repeats=repeats), 1)
        campaign = bench_campaign(n_jobs=n_jobs)
        recovery = bench_recovery()
    return {
        "schema": 7,
        "backend": backend,
        "parallel_scaling": parallel_scaling,
        "pipeline_us_per_window": pipeline_us,
        "fused_pipeline_us_per_window": fused_us,
        "fleet_us_per_deployment_window": fleet[
            "fleet_us_per_deployment_window"
        ],
        "fleet": fleet,
        "fleet_isolated_us_per_deployment_window": fleet_degradation[
            "isolated_us_per_deployment_window"
        ],
        "fleet_degradation": fleet_degradation,
        "hmm_update_us": hmm_us,
        "clusterer_update_us": clusterer_us,
        "filter_bank_us": filter_bank["vector_us_per_window"],
        "filter_bank": filter_bank,
        "trace_gen_us_per_window": trace_generation["columnar_us_per_window"],
        "trace_generation": trace_generation,
        "campaign": campaign,
        "recovery": recovery,
        "baseline_pre_optimization": dict(PRE_OPTIMIZATION_BASELINE),
        "environment": environment_info(threads_pinned=threads_pinned),
    }


def compare(
    current: Dict[str, object],
    previous: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressions of the checked kernels beyond ``tolerance`` (fractional).

    Returns human-readable failure lines; empty means the run is clean.
    Missing metrics in the previous file are skipped (schema growth must
    not fail old baselines).
    """
    failures = []
    for metric in CHECKED_METRICS:
        old = previous.get(metric)
        new = current.get(metric)
        if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
            continue
        budget = old * (1.0 + tolerance)
        if new > budget:
            failures.append(
                f"{metric}: {new:.2f} us exceeds {old:.2f} us "
                f"(+{(new / old - 1.0) * 100:.0f}%, tolerance {tolerance:.0%})"
            )
    return failures


def render(result: Dict[str, object]) -> str:
    """One-screen summary of a bench run."""
    campaign = result["campaign"]
    baseline = result["baseline_pre_optimization"]
    lines = ["perf bench:"]
    for metric in CHECKED_METRICS:
        old = baseline.get(metric)
        new = result.get(metric)
        if new is None:
            # Rendering an older-schema payload that predates this
            # metric must not crash the report.
            lines.append(f"  {metric:<26}      n/a")
            continue
        gain = f"  ({old / new:.1f}x vs pre-opt {old} us)" if old else ""
        lines.append(f"  {metric:<26} {new:>8} us{gain}")
    filter_bank = result.get("filter_bank")
    if filter_bank:
        lines.append(
            f"  filter bank ({filter_bank['n_sensors']} sensors): scalar "
            f"{filter_bank['scalar_us_per_window']} us/window, vector "
            f"{filter_bank['vector_us_per_window']} us/window "
            f"-> {filter_bank['speedup']}x"
        )
    trace_generation = result.get("trace_generation")
    if trace_generation:
        lines.append(
            f"  trace gen ({trace_generation['n_days']} days): object "
            f"{trace_generation['object_us_per_window']} us/window, columnar "
            f"{trace_generation['columnar_us_per_window']} us/window "
            f"-> {trace_generation['speedup']}x"
        )
    fleet = result.get("fleet")
    if fleet:
        points = ", ".join(
            f"N={point['n']}: {point['fleet_us_per_deployment_window']} us "
            f"({point['speedup']}x)"
            for point in fleet["curve"]
        )
        lines.append(f"  fleet amortized cost vs independent runs: {points}")
    degradation = result.get("fleet_degradation")
    if degradation:
        faulted = degradation["faulted"]
        survivors = (
            "bit-identical"
            if faulted["survivors_bit_identical"]
            else "MISMATCH"
        )
        lines.append(
            f"  fleet isolation (N={degradation['n_tenants']}, interval "
            f"{degradation['checkpoint_interval']}): raw "
            f"{degradation['raw_us_per_deployment_window']} us/dw, isolated "
            f"{degradation['isolated_us_per_deployment_window']} us/dw "
            f"-> +{degradation['overhead_pct']}% no-fault overhead; faulted "
            f"{faulted['n_poisoned']}/{faulted['n_tenants']}: "
            f"{faulted['quarantined']} quarantined, "
            f"{faulted['readmitted']} readmitted, survivors {survivors}"
        )
    backend = result.get("backend")
    if backend:
        flavor = backend["flavors"]["compiled"]
        points = ", ".join(
            f"{name}: {row['numpy_us']}->{row['compiled_us']} us "
            f"({row['speedup']}x)"
            for name, row in backend["kernels"].items()
        )
        lines.append(
            f"  backend numpy vs compiled ({flavor} flavor, parity "
            f"{'OK' if backend['digest_parity'] else 'FAIL'}): {points}"
        )
    scaling = result.get("parallel_scaling")
    if scaling:
        points = ", ".join(
            f"{point['n_workers']}w: {point['seconds']}s "
            f"(eff {point['efficiency']})"
            for point in scaling["curve"]
        )
        lines.append(
            f"  parallel scaling (serial {scaling['serial_seconds']}s, "
            f"{scaling['cpu_count']} cpu): {points}"
        )
    campaign_speedup = (
        f"{campaign['speedup']}x"
        if campaign.get("speedup") is not None
        else f"n/a ({campaign.get('cpu_count', 1)} cpu)"
    )
    lines.append(
        f"  campaign ({len(campaign['scenarios'])} scenarios, "
        f"{campaign['n_days']} days): serial {campaign['serial_seconds']}s, "
        f"parallel(n_jobs={campaign['n_jobs']}) {campaign['parallel_seconds']}s "
        f"-> {campaign_speedup}"
    )
    recovery = result.get("recovery")
    if recovery:
        lines.append(
            f"  recovery ({len(recovery['scenarios'])} scenarios, "
            f"{recovery['kill_probability']:.0%} worker kills): clean "
            f"{recovery['clean_seconds']}s, chaos "
            f"{recovery['chaos_seconds']}s -> "
            f"{recovery['overhead_ratio']}x overhead "
            f"({recovery['retries']} retries, "
            f"{recovery['pool_rebuilds']} pool rebuilds, "
            f"{recovery['quarantined']} quarantined)"
        )
    return "\n".join(lines)


def parity_command(
    n_days: int = 3, seed: int = 7, backend: str = "numpy"
) -> "tuple[str, int]":
    """The ``repro parity`` implementation: (report text, exit code).

    Runs one GDI trace through the per-window oracle
    (``process_trace``) and the fused fast path
    (``process_trace_fast``) for every alarm-filter kind crossed with
    every supervisor mode, and demands exact equality of the campaign
    digest, the JSON snapshot, and each per-window result.  Any
    mismatch is a correctness bug in the fused engine, so the exit
    code is non-zero and CI blocks on it.  ``backend`` selects the
    kernel backend for *both* sides, so ``--backend compiled`` pins
    every compiled kernel against the oracle bit-for-bit.
    """
    from . import DetectionPipeline, PipelineConfig
    from .traces import GDITraceConfig, generate_gdi_trace_columnar

    trace = generate_gdi_trace_columnar(
        GDITraceConfig(n_days=n_days, seed=seed)
    )
    lines = [
        f"fused-vs-oracle parity: {n_days} days, seed {seed}, "
        f"backend {backend}"
    ]
    ok = True
    for kind in ("k_of_n", "sprt", "cusum"):
        for mode in ("off", "warn", "repair"):
            config = PipelineConfig(
                filter_kind=kind, supervisor_mode=mode, backend=backend
            )
            oracle = DetectionPipeline(config)
            fused = DetectionPipeline(config)
            oracle_results = oracle.process_trace(trace)
            fused.process_trace_fast(trace)
            fused_results = fused.results
            digest_ok = oracle.digest() == fused.digest()
            snapshot_ok = json.dumps(
                oracle.snapshot(), sort_keys=True, default=str
            ) == json.dumps(fused.snapshot(), sort_keys=True, default=str)
            results_ok = len(oracle_results) == len(fused_results) and all(
                a == b for a, b in zip(oracle_results, fused_results)
            )
            ok = ok and digest_ok and snapshot_ok and results_ok

            def _tag(flag: bool) -> str:
                return "OK" if flag else "FAIL"

            lines.append(
                f"  {kind:<7} {mode:<7} digest={_tag(digest_ok)} "
                f"snapshot={_tag(snapshot_ok)} results={_tag(results_ok)}"
            )
    lines.append("parity PASS" if ok else "parity FAIL")
    return "\n".join(lines), 0 if ok else 1


def _synthetic_dim_trace(
    seed: int, dims: int, n_sensors: int, n_windows: int = 60
):
    """A d-dimensional regime trace for fleet-parity heterogeneity.

    The GDI traces are all two-attribute; fleet packing must also hold
    for tenants whose windows carry other dimensionalities (d == 1
    routes through the untrusted slow lane, d >= 3 gets its own
    batched dimensionality group).
    """
    from . import PipelineConfig
    from .sensornet.collector import windows_from_arrays

    rng = np.random.default_rng(seed)
    base = 10.0 + 5.0 * np.arange(dims)
    ts: List[float] = []
    sids: List[int] = []
    vals: List[np.ndarray] = []
    for index in range(1, n_windows + 1):
        hot = ((index - 1) // 15) % 2
        truth = base + (8.0 if hot else 0.0)
        for sensor in range(n_sensors):
            ts.append((index - 1) * 60.0 + 1.0)
            sids.append(sensor)
            vals.append(truth + rng.normal(0, 0.3, dims))
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


def fleet_parity_command(
    n_tenants: int = 18, n_days: int = 2, backend: str = "numpy"
) -> "tuple[str, int]":
    """The ``repro parity --fleet`` implementation: (report, exit code).

    Packs a heterogeneous fleet — every filter kind, every supervisor
    mode, varying sensor counts, attribute dimensionalities 1 through
    3, and unequal trace lengths — into one :class:`FleetEngine` and
    demands that every tenant finishes bit-identical (digest, JSON
    snapshot, and per-window results) to its own independent
    ``process_windows_fast`` run.  ``backend`` selects the kernel
    backend for both sides (``--backend compiled`` pins the batched
    compiled kernels).
    """
    from . import DetectionPipeline, PipelineConfig
    from .fleet import FleetEngine
    from .traces import GDITraceConfig, generate_gdi_trace_columnar
    from .traces.windows import window_trace_columnar

    kinds = ("k_of_n", "sprt", "cusum")
    modes = ("off", "warn", "repair")
    tenants = []
    for tid in range(n_tenants):
        kind = kinds[tid % 3]
        mode = modes[(tid // 3) % 3]
        n_sensors = 6 + (tid % 7)
        config = PipelineConfig(
            filter_kind=kind, supervisor_mode=mode, backend=backend
        )
        if tid % 6 == 5:
            dims = 1 + (tid // 6) % 3
            windows = _synthetic_dim_trace(
                seed=300 + tid, dims=dims, n_sensors=n_sensors
            )
        else:
            trace = generate_gdi_trace_columnar(
                GDITraceConfig(
                    n_days=n_days + tid % 2,
                    seed=100 + tid,
                    n_sensors=n_sensors,
                )
            )
            windows = window_trace_columnar(trace, config.window_minutes)
        tenants.append((config, windows))

    independent = []
    for config, windows in tenants:
        pipeline = DetectionPipeline(config)
        pipeline.process_windows_fast(windows)
        independent.append(pipeline)

    fleet_pipes = [DetectionPipeline(config) for config, _ in tenants]
    engine = FleetEngine.from_pipelines(fleet_pipes)
    engine.process_windows([windows for _, windows in tenants])

    lines = [
        f"fleet-vs-independent parity: {n_tenants} heterogeneous "
        f"tenants, backend {backend}"
    ]
    ok = True
    for tid, (reference, packed) in enumerate(
        zip(independent, engine.to_pipelines())
    ):
        digest_ok = reference.digest() == packed.digest()
        snapshot_ok = json.dumps(
            reference.snapshot(), sort_keys=True, default=str
        ) == json.dumps(packed.snapshot(), sort_keys=True, default=str)
        results_ok = len(reference.results) == len(packed.results) and all(
            a == b for a, b in zip(reference.results, packed.results)
        )
        ok = ok and digest_ok and snapshot_ok and results_ok
        config = tenants[tid][0]
        tag = "OK" if digest_ok and snapshot_ok and results_ok else "FAIL"
        lines.append(
            f"  tenant {tid:2d} {config.filter_kind:<7} "
            f"{config.supervisor_mode:<7} "
            f"windows={len(tenants[tid][1]):3d} {tag}"
        )
    lines.append("fleet parity PASS" if ok else "fleet parity FAIL")
    return "\n".join(lines), 0 if ok else 1


def bench_command(
    output: str = DEFAULT_OUTPUT,
    check: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
    n_jobs: Optional[int] = None,
    repeats: int = 3,
    profile: bool = False,
) -> "tuple[str, int]":
    """The ``repro bench`` implementation: (report text, exit code)."""
    previous = None
    if check and os.path.exists(output):
        with open(output, "r", encoding="utf-8") as fh:
            previous = json.load(fh)

    result = run_bench(n_jobs=n_jobs, repeats=repeats)
    text = render(result)
    if profile:
        text += "\n" + profile_fused()

    if check:
        if previous is None:
            return text + f"\nno previous {output}; nothing to check", 0
        failures = compare(result, previous, tolerance=tolerance)
        if failures:
            return text + "\nREGRESSIONS:\n" + "\n".join(
                f"  {line}" for line in failures
            ), 1
        return text + f"\nno regressions vs {output} (tolerance {tolerance:.0%})", 0

    with open(output, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return text + f"\nwrote {output}", 0
