"""``run_fleet``: per-deployment parity and explicit quarantine.

Deployments share no state, so ``run_fleet`` must leave every one
exactly where its own ``process_windows_fast`` run would have — same
digest, same checkpoint snapshot, same ``WindowResult`` stream — and a
deployment whose run raises must come back as a ``TaskError`` without
touching any other.  Every parity assertion is exact ``==``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.experiments import TaskError, run_fleet
from repro.sensornet.collector import ArrayWindow, windows_from_arrays

FILTER_KINDS = ("k_of_n", "sprt", "cusum")
SUPERVISOR_MODES = ("off", "warn", "repair")


def snapshot_json(pipeline: DetectionPipeline) -> str:
    return json.dumps(pipeline.snapshot(), sort_keys=True, default=str)


def regime_windows(
    seed: int,
    n_windows: int = 80,
    n_sensors: int = 6,
    dims: int = 2,
    dwell: int = 20,
    noise: float = 0.3,
):
    """Two-regime telemetry: long steady dwells between level shifts."""
    if n_windows == 0:
        return []
    rng = np.random.default_rng(seed)
    base = 10.0 + 5.0 * np.arange(dims)
    ts, sids, vals = [], [], []
    for index in range(1, n_windows + 1):
        hot = ((index - 1) // dwell) % 2
        truth = base + (12.0 if hot else 0.0)
        for sensor in range(n_sensors):
            ts.append((index - 1) * 60.0 + 1.0)
            sids.append(sensor)
            vals.append(truth + rng.normal(0, noise, dims))
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


def solo_run(config, windows) -> DetectionPipeline:
    pipeline = DetectionPipeline(config or PipelineConfig())
    pipeline.process_windows_fast(windows)
    return pipeline


def assert_same_run(reference: DetectionPipeline, tenant) -> None:
    assert isinstance(tenant, DetectionPipeline), tenant
    assert reference.digest() == tenant.digest()
    assert snapshot_json(reference) == snapshot_json(tenant)
    assert reference.results == tenant.results


# -- parity with solo runs ---------------------------------------------------


def _filter_kind_case(kind):
    configs = [PipelineConfig(filter_kind=kind)] * 4
    loads = [regime_windows(10 + tid, n_sensors=5 + tid) for tid in range(4)]
    return loads, configs


def _supervisor_case(mode):
    configs = [PipelineConfig(supervisor_mode=mode)] * 3 + [None]
    loads = [regime_windows(20 + tid) for tid in range(4)]
    return loads, configs


def _heterogeneous_case():
    configs, loads = [], []
    for tid, (kind, mode) in enumerate(
        (kind, mode) for kind in FILTER_KINDS for mode in SUPERVISOR_MODES
    ):
        configs.append(PipelineConfig(filter_kind=kind, supervisor_mode=mode))
        loads.append(regime_windows(40 + tid, n_sensors=4 + tid % 5))
    return loads, configs


PARITY_CASES = {
    **{
        f"filter-{kind}": (lambda kind=kind: _filter_kind_case(kind))
        for kind in FILTER_KINDS
    },
    **{
        f"supervisor-{mode}": (lambda mode=mode: _supervisor_case(mode))
        for mode in SUPERVISOR_MODES
    },
    "heterogeneous": _heterogeneous_case,
    "mixed-dimensionalities": lambda: (
        [regime_windows(60 + dims, dims=dims) for dims in (1, 2, 3)],
        None,
    ),
    "unequal-lengths": lambda: (
        [
            regime_windows(70 + tid, n_windows=length)
            for tid, length in enumerate((15, 47, 80, 0))
        ],
        None,
    ),
    "default-and-explicit-configs": lambda: (
        [regime_windows(80 + tid, n_sensors=5) for tid in range(3)],
        [PipelineConfig(), PipelineConfig(filter_kind="sprt"), None],
    ),
    "no-fault-fleet": lambda: (
        [regime_windows(seed, n_windows=120) for seed in range(4)],
        [PipelineConfig(n_sensors=6)] * 4,
    ),
    "empty-fleet": lambda: ([], None),
    "config-count-mismatch": lambda: ([regime_windows(1)], [None, None]),
    "window-count-mismatch": lambda: ([], [PipelineConfig()]),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_run_fleet_matches_solo_runs(case):
    loads, configs = PARITY_CASES[case]()
    if configs is not None and len(configs) != len(loads):
        with pytest.raises(ValueError):
            run_fleet(loads, configs)
        return
    tenants = run_fleet(loads, configs)
    assert len(tenants) == len(loads)
    configs = configs or [None] * len(loads)
    for config, windows, tenant in zip(configs, loads, tenants):
        assert_same_run(solo_run(config, windows), tenant)


# -- quarantine of poisoned deployments --------------------------------------


class InjectedKernelFault(RuntimeError):
    """Raised by :class:`FaultingWindow` on any data access."""


class FaultingWindow:
    """A window whose every data accessor raises: a forced kernel fault."""

    def __init__(self, window):
        self.index = window.index
        self.start_minutes = window.start_minutes
        self.end_minutes = window.end_minutes

    def __getattr__(self, name):
        raise InjectedKernelFault(f"injected kernel fault (window {self.index})")


def poison_window(window, kind: str):
    if kind == "exception":
        return FaultingWindow(window)
    observations = np.array(window.observations, dtype=float)
    n_attributes = window.n_attributes
    if kind == "nan_burst":
        observations[:] = np.nan
    elif kind == "inf_burst":
        observations[:] = np.inf
    elif kind == "exploding":
        observations[:] = 8e307  # window sums overflow to inf
    elif kind == "malformed":
        observations = np.ones((observations.shape[0], n_attributes + 1))
        n_attributes += 1
    return ArrayWindow(
        window.index,
        window.start_minutes,
        window.end_minutes,
        observations,
        np.array(window.sensor_id_array),
        n_attributes,
    )


POISON_RAISES = {
    "exploding": "ValueError",
    "malformed": "ValueError",
    "exception": "InjectedKernelFault",
}
POISON_ABSORBED = ("nan_burst", "inf_burst")


@pytest.mark.parametrize("where", ("first-window", "last-window"))
@pytest.mark.parametrize("kind", POISON_ABSORBED + tuple(POISON_RAISES))
def test_poisoned_deployments_are_quarantined_and_survivors_untouched(
    kind, where
):
    n_tenants, victims, burst = 6, (0, 5), 3
    loads = [regime_windows(90 + tid) for tid in range(n_tenants)]
    start = 0 if where == "first-window" else len(loads[0]) - burst
    fleet_loads = [list(windows) for windows in loads]
    for tid in victims:
        for position in range(start, start + burst):
            fleet_loads[tid][position] = poison_window(
                loads[tid][position], kind
            )

    tenants = run_fleet(fleet_loads)  # must not raise

    assert len(tenants) == n_tenants
    for tid, tenant in enumerate(tenants):
        if tid not in victims:
            assert_same_run(solo_run(None, loads[tid]), tenant)
        elif kind in POISON_ABSORBED:
            assert isinstance(tenant, DetectionPipeline), tenant
            assert tenant.n_non_finite_dropped > 0
        else:
            assert isinstance(tenant, TaskError)
            assert tenant.kind == "exception"
            assert tenant.message.startswith(POISON_RAISES[kind])
            assert POISON_RAISES[kind] in tenant.traceback_text
