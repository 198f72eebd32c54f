"""Scenario and campaign paths vs the object-path oracle.

``run_scenario``, ``run_pipeline`` and the campaign worker generate
traces columnarly and detect through the fused
``process_windows_fast``.  The oracle for both is the object path —
``generate_gdi_trace`` + ``window_trace_by_samples`` + one
``_process_window_reference`` call per window — and every assertion here is exact
``==``: the product paths must not move a single digest, verdict or
cached byte relative to it.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.experiments import _SCENARIO_BUILDERS, scenarios
from repro.experiments.runner import (
    ScenarioSpec,
    _run_scenario_spec,
    _summarize_pipeline,
    compute_initial_states,
    run_pipeline,
    run_scenario,
    summarize_run,
)
from repro.faults.attacks import (
    DynamicChangeAttack,
    DynamicCreationAttack,
    DynamicDeletionAttack,
    MixedAttack,
)
from repro.faults.base import ActivationSchedule
from repro.faults.campaign import CampaignSpec
from repro.faults.errors import (
    AdditiveFault,
    CalibrationFault,
    DriftFault,
    PacketDropper,
    StuckAtFault,
)
from repro.sensornet.collector import ArrayWindow
from repro.traces import GDITraceConfig, generate_gdi_trace
from repro.traces.cache import TraceCache, scenario_spec
from repro.traces.columnar import generate_gdi_trace_columnar
from repro.traces.schema import Trace
from repro.traces.gdi import build_environment
from repro.traces.windows import window_trace_by_samples

SEEDS = (2003, 11)

#: Onset inside a 2-day trace, so every planted fault is active.
ONSET = ActivationSchedule(start_minutes=24 * 60.0)

ATTACKERS = [1, 5, 8]


def _plan(kind: str, corruptor, sensors) -> CampaignSpec:
    plan = CampaignSpec(name=kind)
    plan.plant(corruptor, sensors, ONSET)
    return plan


#: kind -> factory of a fresh plan (corruptors carry RNG state, so each
#: run needs its own).
PLANS: "dict[str, Callable[[int], CampaignSpec]]" = {
    "stuck_at": lambda seed: _plan(
        "stuck_at",
        PacketDropper(
            inner=StuckAtFault(value=(15.0, 1.0)),
            drop_probability=0.5,
            seed=seed + 6,
        ),
        [6],
    ),
    "calibration": lambda seed: _plan(
        "calibration", CalibrationFault(gains=(1.0 / 1.24, 1.16)), [7]
    ),
    "additive": lambda seed: _plan(
        "additive", AdditiveFault(offsets=(6.0, 12.0)), [3]
    ),
    "drift": lambda seed: _plan(
        "drift", DriftFault(terminal=(15.0, 1.0), ramp_minutes=12 * 60.0), [5]
    ),
    "deletion": lambda seed: _plan(
        "deletion", DynamicDeletionAttack(), ATTACKERS
    ),
    "creation": lambda seed: _plan(
        "creation", DynamicCreationAttack(trigger=(12.0, 94.0)), ATTACKERS
    ),
    "change": lambda seed: _plan("change", DynamicChangeAttack(), ATTACKERS),
    "mixed": lambda seed: _plan("mixed", MixedAttack(), ATTACKERS),
}


def oracle_pipeline(
    trace_config: GDITraceConfig,
    campaign: Optional[CampaignSpec] = None,
    config: Optional[PipelineConfig] = None,
    initial_states=None,
):
    """The object path: message-level trace, per-window detection."""
    config = config or PipelineConfig()
    injector = (
        campaign.build_injector(build_environment(trace_config))
        if campaign
        else None
    )
    trace = generate_gdi_trace(trace_config, corruption=injector)
    pipeline = DetectionPipeline(config, initial_states=initial_states)
    for window in window_trace_by_samples(
        trace, config.window_samples, config.sample_period_minutes
    ):
        pipeline._process_window_reference(window)
    return trace, pipeline


def test_reference_states_match_object_path():
    for seed in SEEDS:
        _, oracle = oracle_pipeline(GDITraceConfig(n_days=7, seed=seed))
        model = oracle.correct_model(prune=True)
        expected = sorted(
            (model.state_vectors[s] for s in model.state_ids),
            key=lambda v: float(v[0]),
        )
        got = scenarios.reference_states(n_days=7, seed=seed)
        assert len(got) == len(expected)
        for ours, theirs in zip(got, expected):
            assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("kind", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_run_scenario_matches_object_path(kind, seed):
    trace_config = GDITraceConfig(n_days=2, seed=seed)
    run = run_scenario(kind, campaign=PLANS[kind](seed), trace_config=trace_config)
    plan = PLANS[kind](seed)
    _, oracle = oracle_pipeline(trace_config, plan)
    expected = _summarize_pipeline(
        oracle, kind, n_days=2, seed=seed, ground_truth=plan.ground_truth()
    )
    outcome = summarize_run(run)
    assert outcome == expected
    assert outcome.digest == oracle.digest()
    # Both ways of counting raw alarms agree, on either engine.
    assert outcome.n_raw_alarms == sum(
        len(result.raw_alarms) for result in oracle.results
    )
    assert len(run.pipeline.alarm_generator.alarms) == sum(
        len(result.raw_alarms) for result in run.pipeline.results
    )


@pytest.mark.parametrize("columnar", [False, True])
def test_run_pipeline_matches_per_window_loop(columnar):
    trace_config = GDITraceConfig(n_days=2, seed=7)
    trace, oracle = oracle_pipeline(trace_config, PLANS["mixed"](7))
    if columnar:
        trace = generate_gdi_trace_columnar(
            trace_config,
            corruption=PLANS["mixed"](7).build_injector(
                build_environment(trace_config)
            ),
        )
    pipeline = run_pipeline(trace, PipelineConfig())
    assert pipeline.digest() == oracle.digest()
    assert pipeline.results == oracle.results


def oracle_trace(monkeypatch, spec: ScenarioSpec):
    """The object-path trace of a standard scenario spec.

    Runs the spec's builder with ``run_scenario`` swapped for a stand-in
    that generates each requested trace through ``generate_gdi_trace``
    (and returns a clean run, which is all an attack builder's
    reference-state lookup reads).  The last trace is the scenario's.
    """
    traces = []
    real = scenarios.run_scenario

    def object_path(name, campaign=None, trace_config=None, config=None):
        injector = (
            campaign.build_injector(build_environment(trace_config))
            if campaign
            else None
        )
        traces.append(generate_gdi_trace(trace_config, corruption=injector))
        return real(name, trace_config=trace_config, config=config)

    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "run_scenario", object_path)
        _SCENARIO_BUILDERS[spec.name](n_days=spec.n_days, seed=spec.seed)
    return traces[-1]


@pytest.mark.parametrize("name", ["clean", "stuck_at", "deletion"])
def test_cold_spec_stores_object_path_arrays(tmp_path, monkeypatch, name):
    spec = ScenarioSpec(name, n_days=2, seed=5)
    _run_scenario_spec(spec, cache_dir=tmp_path)
    oracle = oracle_trace(monkeypatch, spec)
    entry = TraceCache(tmp_path).load(
        scenario_spec(spec.name, spec.n_days, spec.seed)
    )
    assert entry is not None
    for ours, theirs in zip(
        (entry.timestamps, entry.sensor_ids, entry.values), oracle.to_arrays()
    ):
        assert ours.dtype == theirs.dtype
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
    assert tuple(entry.attribute_names) == tuple(oracle.attribute_names)
    assert entry.metadata == oracle.metadata


def test_cache_written_from_object_path_replays_as_hit(tmp_path):
    """Entries stored from ``Trace.to_arrays()`` stay valid hits."""
    spec = ScenarioSpec("clean", n_days=2, seed=5)
    cold = _run_scenario_spec(spec)
    trace = generate_gdi_trace(GDITraceConfig(n_days=2, seed=5))
    timestamps, sensor_ids, values = trace.to_arrays()
    TraceCache(tmp_path).store(
        scenario_spec(spec.name, spec.n_days, spec.seed),
        timestamps,
        sensor_ids,
        values,
        attribute_names=trace.attribute_names,
        metadata=trace.metadata,
        ground_truth={},
        label="clean",
    )
    hot = _run_scenario_spec(spec, cache_dir=tmp_path)
    assert hot.from_cache
    assert hot == cold


def test_campaign_worker_never_builds_object_trace(tmp_path, monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("object Trace built on the campaign path")

    monkeypatch.setattr(Trace, "__init__", forbidden)
    spec = ScenarioSpec("creation", n_days=2, seed=3)
    cold = _run_scenario_spec(spec, cache_dir=tmp_path)
    hot = _run_scenario_spec(spec, cache_dir=tmp_path)
    assert not cold.from_cache and hot.from_cache
    assert hot == cold


def test_scenario_run_builds_trace_lazily():
    run = scenarios.clean_scenario(n_days=1, seed=3)
    assert all(isinstance(window, ArrayWindow) for window in run.windows())
    assert run._trace is None
    trace = run.trace
    assert run.trace is trace
    assert trace.to_arrays()[2].tobytes() == (
        run.columnar.delivered_arrays()[2].tobytes()
    )


def test_offline_initial_states_from_columnar_trace():
    trace_config = GDITraceConfig(n_days=2, seed=4)
    config = PipelineConfig()
    run = run_scenario(
        "clean", trace_config=trace_config, use_offline_initial_states=True
    )
    states = compute_initial_states(run.columnar, config)
    assert np.array_equal(states, compute_initial_states(run.trace, config))
    _, oracle = oracle_pipeline(trace_config, initial_states=states)
    assert run.pipeline.digest() == oracle.digest()
