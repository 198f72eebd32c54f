"""Parallel experiment runner: determinism and plumbing.

The fan-out contract (DESIGN.md §Performance): ``run_campaign``
returns identical :class:`ScenarioOutcome` lists for any ``n_jobs``,
because every worker rebuilds its scenario from the spec's own seed and
results are collected in submission order.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ScenarioOutcome,
    ScenarioSpec,
    run_campaign,
    run_scenario,
    summarize_run,
)
from repro.experiments.runner import _run_scenario_spec, resolve_n_jobs

# Small/fast specs: 3 simulated days keep each worker under a few seconds.
SPECS = [
    ScenarioSpec("clean", n_days=3, seed=17),
    ScenarioSpec("stuck_at", n_days=3, seed=17),
    ScenarioSpec("calibration", n_days=3, seed=23),
]


@pytest.fixture(scope="module")
def serial_outcomes():
    return run_campaign(SPECS, n_jobs=1).outcomes


def test_serial_matches_parallel(serial_outcomes):
    parallel = run_campaign(SPECS, n_jobs=2).outcomes
    assert parallel == serial_outcomes


def test_results_in_submission_order(serial_outcomes):
    assert [o.name for o in serial_outcomes] == [
        "clean",
        "stuck-at",
        "calibration",
    ]
    assert [o.seed for o in serial_outcomes] == [17, 17, 23]


def test_outcome_matches_direct_run(serial_outcomes):
    spec = SPECS[1]
    direct = _run_scenario_spec(spec)
    assert direct == serial_outcomes[1]
    assert isinstance(direct, ScenarioOutcome)
    assert direct.n_windows > 0
    assert direct.n_model_states > 0
    assert direct.correct_model_labels


def test_summarize_run_carries_ground_truth():
    from repro.experiments.scenarios import stuck_at_scenario

    run = stuck_at_scenario(n_days=3, seed=17)
    outcome = summarize_run(run)
    assert outcome.ground_truth == run.ground_truth
    assert outcome.n_days == run.trace_config.n_days
    assert outcome.detected_sensors() == sorted(outcome.sensor_diagnoses)


def test_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario"):
        _run_scenario_spec(ScenarioSpec("no-such-scenario", n_days=1))


def test_resolve_n_jobs():
    assert resolve_n_jobs(1) == 1
    assert resolve_n_jobs(4) == 4
    assert resolve_n_jobs(-3) == 1
    assert resolve_n_jobs(None) >= 1
    assert resolve_n_jobs(0) == resolve_n_jobs(None)


def _poison_pool(monkeypatch):
    """Make any ProcessPoolExecutor construction fail loudly."""
    from repro.experiments import runner

    def boom(*args, **kwargs):  # pragma: no cover - failure is the assert
        raise AssertionError("ProcessPoolExecutor must not be constructed")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", boom)


def test_n_jobs_1_runs_inline_without_pool(monkeypatch, serial_outcomes):
    # Serial runs must stay in-process: no fork/spawn overhead, no
    # worker initialisation, and debuggable stack traces.
    _poison_pool(monkeypatch)
    assert run_campaign(SPECS, n_jobs=1).outcomes == serial_outcomes


def test_single_spec_runs_inline_without_pool(monkeypatch, serial_outcomes):
    # One scenario can never benefit from a pool, whatever n_jobs says.
    _poison_pool(monkeypatch)
    outcomes = run_campaign(SPECS[:1], n_jobs=4).outcomes
    assert outcomes == serial_outcomes[:1]


def test_specs_built_from_names_match_the_full_campaign(serial_outcomes):
    specs = [
        ScenarioSpec(name, n_days=3, seed=17) for name in ("clean", "stuck_at")
    ]
    assert run_campaign(specs, n_jobs=1).outcomes == serial_outcomes[:2]


def test_spec_defaults_match_cached_scenario_defaults():
    spec = ScenarioSpec("clean")
    assert spec.n_days == 21
    assert spec.seed == 2003
