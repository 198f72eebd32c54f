"""Experiment harness: one callable per paper table/figure + ablations.

The per-artefact index lives in DESIGN.md §4.  Heavy scenario runs are
memoised per-process via :func:`cached_scenario` so that a benchmark
session reuses one simulation across the artefacts it feeds.
"""

from functools import lru_cache

from .._lazy import lazy_exports
from .retry import RetryPolicy, TaskError
from .runner import (
    CampaignReport,
    ScenarioOutcome,
    ScenarioRun,
    ScenarioSpec,
    campaign_spec_key,
    compute_initial_states,
    run_campaign,
    run_fleet,
    run_pipeline,
    run_scenario,
    summarize_run,
)
from .scenarios import (
    additive_scenario,
    calibration_scenario,
    change_scenario,
    clean_scenario,
    creation_scenario,
    deletion_scenario,
    faulty_sensors_scenario,
    mixed_scenario,
    random_noise_scenario,
    reference_states,
    stuck_at_scenario,
)

# The artefact generators and the journal are off the campaign path;
# they load on first use (DESIGN.md §12.4).
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "ablations": (
            "A5_EQUIVALENCES",
            "SweepResult",
            "baseline_comparison",
            "classification_matrix",
            "compromised_fraction_sweep",
            "dynamic_change_study",
            "estimator_comparison",
            "filter_comparison",
            "learning_factor_sweep",
            "window_size_sweep",
        ),
        "figures": (
            "Figure6Result",
            "Figure7Result",
            "Figure8Result",
            "Figure9Result",
            "Figure12Result",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure12",
        ),
        "journal": ("CampaignJournal",),
        "tables": (
            "AttackMatrixResult",
            "SensorMatricesResult",
            "Table1Result",
            "table1",
            "table2_3",
            "table4_5",
            "table6",
            "table7",
        ),
    },
)

_SCENARIO_BUILDERS = {
    "clean": clean_scenario,
    "faulty": faulty_sensors_scenario,
    "stuck_at": stuck_at_scenario,
    "calibration": calibration_scenario,
    "additive": additive_scenario,
    "random_noise": random_noise_scenario,
    "deletion": deletion_scenario,
    "creation": creation_scenario,
    "change": change_scenario,
    "mixed": mixed_scenario,
}


@lru_cache(maxsize=32)
def cached_scenario(name: str, n_days: int = 21, seed: int = 2003) -> ScenarioRun:
    """Memoised standard scenario run (for benchmark/test reuse)."""
    builder = _SCENARIO_BUILDERS.get(name)
    if builder is None:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(_SCENARIO_BUILDERS)}"
        )
    return builder(n_days=n_days, seed=seed)


__all__ = [
    "A5_EQUIVALENCES",
    "AttackMatrixResult",
    "CampaignJournal",
    "CampaignReport",
    "Figure12Result",
    "Figure6Result",
    "Figure7Result",
    "Figure8Result",
    "Figure9Result",
    "RetryPolicy",
    "ScenarioOutcome",
    "ScenarioRun",
    "ScenarioSpec",
    "SensorMatricesResult",
    "SweepResult",
    "Table1Result",
    "TaskError",
    "additive_scenario",
    "baseline_comparison",
    "cached_scenario",
    "calibration_scenario",
    "campaign_spec_key",
    "change_scenario",
    "classification_matrix",
    "clean_scenario",
    "compromised_fraction_sweep",
    "compute_initial_states",
    "creation_scenario",
    "deletion_scenario",
    "dynamic_change_study",
    "estimator_comparison",
    "faulty_sensors_scenario",
    "figure12",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "filter_comparison",
    "learning_factor_sweep",
    "mixed_scenario",
    "random_noise_scenario",
    "reference_states",
    "run_campaign",
    "run_fleet",
    "run_pipeline",
    "run_scenario",
    "stuck_at_scenario",
    "summarize_run",
    "table1",
    "table2_3",
    "table4_5",
    "table6",
    "table7",
    "window_size_sweep",
]
