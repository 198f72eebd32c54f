"""A8 — performance: pipeline throughput and hot-loop costs.

These are conventional pytest-benchmark micro-benchmarks (multiple
rounds) rather than one-shot experiment reruns: the paper's procedure is
meant to run *on-the-fly* on a collector node, so per-window cost is a
first-class result.
"""

import time

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.core.clustering import OnlineStateClusterer
from repro.core.online_hmm import OnlineHMM
from repro.sensornet import ObservationWindow, SensorMessage


def build_windows(n_windows=200, n_sensors=10, seed=0):
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


def test_pipeline_window_throughput(benchmark):
    windows = build_windows()

    def run():
        pipeline = DetectionPipeline(PipelineConfig())
        for window in windows:
            pipeline.process_window(window)
        return pipeline

    start = time.perf_counter()
    pipeline = benchmark(run)
    elapsed = time.perf_counter() - start
    # Under --benchmark-disable the fixture runs ``run`` once and keeps
    # no stats; that single run's wall time stands in for the mean.
    mean = benchmark.stats["mean"] if benchmark.stats is not None else elapsed
    per_window_us = mean / len(windows) * 1e6
    print(f"\npipeline: {per_window_us:.0f} us/window over {len(windows)} windows")
    # A coarse budget, not a measurement: 1 ms/window leaves headroom for
    # slow CI runners while still catching a return to per-state Python
    # loops.  Measured per-window cost lives in the end-to-end benchmark
    # under bench/ (EXPERIMENTS.md A8).
    assert mean / len(windows) < 0.001
    assert pipeline.n_windows == len(windows)


def test_online_hmm_update_cost(benchmark):
    rng = np.random.default_rng(1)
    pairs = [(int(rng.integers(0, 6)), int(rng.integers(0, 8))) for _ in range(1000)]

    def run():
        hmm = OnlineHMM()
        for state, symbol in pairs:
            hmm.observe(state, symbol)
        return hmm

    hmm = benchmark(run)
    assert hmm.n_updates == 1000


def test_clusterer_update_cost(benchmark):
    rng = np.random.default_rng(2)
    batches = [rng.normal([20.0, 70.0], 5.0, size=(10, 2)) for _ in range(200)]

    def run():
        clusterer = OnlineStateClusterer(
            initial_vectors=[np.array([20.0, 70.0])],
            alpha=0.1,
            spawn_threshold=10.0,
            merge_threshold=5.0,
        )
        for batch in batches:
            clusterer.update(batch)
        return clusterer

    clusterer = benchmark(run)
    assert clusterer.n_states >= 1
