"""Fused engine vs per-window oracle: bit-identical or the test fails.

The fused batch path (``process_windows_fast``) only earns its speedup
if it is *exactly* the per-window oracle (``_process_window_reference``)
— same digests, same checkpoint snapshots, same ``WindowResult``
stream, under every alarm-filter kind and supervisor mode
(``tests/test_stream_parity.py`` does the same for the streamed
``process_window``).  Every assertion here is exact ``==`` (no
tolerances): the fused engine's certified shortcuts (the batched window
means, the certified pair bound, steady-stretch certification and its
skip of settled alarm filters) are go/no-go caches that must never
change a single bit of output.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.core.filtering import KOfNFilter
from repro.core import pipeline as pipeline_module
from repro.faults.attacks import DynamicCreationAttack, DynamicDeletionAttack
from repro.faults.base import ActivationSchedule
from repro.faults.campaign import CampaignSpec
from repro.faults.errors import CalibrationFault, StuckAtFault
from repro.sensornet.collector import windows_from_arrays
from repro.traces import (
    GDITraceConfig,
    generate_gdi_trace_columnar,
    window_trace_columnar,
)
from repro.traces.gdi import build_environment

FILTER_KINDS = ("k_of_n", "sprt", "cusum")
SUPERVISOR_MODES = ("off", "warn", "repair")


def snapshot_json(pipeline: DetectionPipeline) -> str:
    return json.dumps(pipeline.snapshot(), sort_keys=True, default=str)


def assert_engines_identical(config: PipelineConfig, windows) -> list:
    """Run both engines over ``windows``; demand exact equality.

    Returns the fused engine's per-window results."""
    oracle = DetectionPipeline(config)
    fused = DetectionPipeline(config)
    oracle_results = [oracle._process_window_reference(w) for w in windows]
    fused.process_windows_fast(windows)
    fused_results = fused.results
    assert oracle.digest() == fused.digest()
    assert snapshot_json(oracle) == snapshot_json(fused)
    assert len(oracle_results) == len(fused_results)
    for ours, theirs in zip(oracle_results, fused_results):
        assert ours == theirs
    return fused_results


def synthetic_windows(
    n_windows: int = 300,
    n_sensors: int = 8,
    n_attributes: int = 2,
    seed: int = 0,
):
    """A hostile 300-window workload exercising the fused edge cases.

    Piecewise-constant environment states with jumps big enough to
    spawn model states (breaking steady stretches), periodic sensor
    dropouts (changing the per-window sensor population), NaN readings
    (quarantined at windowing time), and entirely empty windows.
    """
    rng = np.random.default_rng(seed)
    ts, sids, vals = [], [], []
    for index in range(1, n_windows + 1):
        if index % 57 == 0:
            continue  # an empty window mid-trace
        level = 20.0 + 15.0 * ((index // 30) % 3)
        base = np.array([level, 70.0 - level / 2.0])[:n_attributes]
        for sensor in range(n_sensors):
            if (index + sensor) % 41 == 0:
                continue  # sensor dropout: population changes
            value = base + rng.normal(0.0, 0.3, n_attributes)
            if (index * 13 + sensor) % 97 == 0:
                value = value.copy()
                value[0] = np.nan  # quarantined on windowing
            ts.append((index - 1) * 60.0 + 1.0 + sensor * 1e-3)
            sids.append(sensor)
            vals.append(value)
    ts_arr = np.asarray(ts, dtype=float)
    sid_arr = np.asarray(sids)
    val_arr = np.asarray(vals, dtype=float)
    order = np.lexsort((sid_arr, ts_arr))
    return windows_from_arrays(
        ts_arr[order], sid_arr[order], val_arr[order], 60.0
    )


#: Planted fault regimes (day-1 onset) whose windows split the network
#: into a fixed sensor→state partition: the fault regime of §3.1.
PLANTED = {
    "stuck_at": (StuckAtFault(value=(15.0, 1.0)), [4]),
    "calibration": (CalibrationFault(gains=(1.0 / 1.24, 1.16)), [4]),
    "deletion": (DynamicDeletionAttack(), [1, 5, 8]),
    "creation": (DynamicCreationAttack(trigger=(12.0, 94.0)), [1, 5, 8]),
}


def planted_trace(plan: str, n_days: int = 3, seed: int = 12):
    corruptor, sensors = PLANTED[plan]
    trace_config = GDITraceConfig(n_days=n_days, seed=seed)
    spec = CampaignSpec(name=plan)
    spec.plant(corruptor, sensors, ActivationSchedule(start_minutes=24 * 60.0))
    injector = spec.build_injector(build_environment(trace_config))
    return generate_gdi_trace_columnar(trace_config, corruption=injector)


class TestTraceParity:
    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("mode", SUPERVISOR_MODES)
    def test_gdi_trace(self, kind, mode):
        trace = generate_gdi_trace_columnar(GDITraceConfig(n_days=2, seed=11))
        config = PipelineConfig(filter_kind=kind, supervisor_mode=mode)
        windows = window_trace_columnar(trace, config.window_minutes)
        assert_engines_identical(config, windows)

    @pytest.mark.parametrize("plan", sorted(PLANTED))
    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("mode", SUPERVISOR_MODES)
    def test_planted_fault_trace(self, plan, kind, mode, monkeypatch):
        config = PipelineConfig(filter_kind=kind, supervisor_mode=mode)
        windows = window_trace_columnar(planted_trace(plan), config.window_minutes)
        certified = set()
        split_windows = []

        def counting(name):
            step = getattr(pipeline_module.DetectionPipeline, name)

            def counted(self, window, *args):
                ok = step(self, window, *args)
                if ok:
                    certified.add(window.index)
                    if len(self._steady.groups) > 1:
                        split_windows.append(window.index)
                return ok

            monkeypatch.setattr(pipeline_module.DetectionPipeline, name, counted)

        counting("_steady_step")
        counting("_window_step")
        results = assert_engines_identical(config, windows)

        def partition(result):
            groups = {}
            for sensor, state in result.identification.sensor_states.items():
                groups.setdefault(state, set()).add(sensor)
            return {frozenset(group) for group in groups.values()}

        # Certified windows whose sensor partition differs from the
        # previous window's: re-pins (or a stretch opened right after).
        repins = sum(
            current.window_index in certified
            and not previous.skipped
            and partition(current) != partition(previous)
            for previous, current in zip(results, results[1:])
        )
        # Unsupervised runs must really certify split windows and
        # partition changes; supervised pipelines never open a stretch.
        assert bool(split_windows) == (mode == "off")
        assert (repins > 0) == (mode == "off")


class TestSyntheticEdgeCases:
    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_hostile_workload(self, kind):
        windows = synthetic_windows()
        assert_engines_identical(PipelineConfig(filter_kind=kind), windows)

    @pytest.mark.parametrize("mode", ("warn", "repair"))
    def test_hostile_workload_supervised(self, mode):
        windows = synthetic_windows()
        assert_engines_identical(PipelineConfig(supervisor_mode=mode), windows)

    def test_single_attribute(self):
        # d == 1 exercises the pairwise-summation fallback in the
        # batched means kernel (bulk means are only bit-stable for
        # d >= 2) and the scalar steady-stretch arithmetic.
        windows = synthetic_windows(n_attributes=1, seed=3)
        assert_engines_identical(PipelineConfig(), windows)

    def test_empty_input(self):
        config = PipelineConfig()
        fused = DetectionPipeline(config)
        assert fused.process_windows_fast([]) == 0
        assert fused.results == []

    def test_checkpoint_mid_run_resumes_identically(self):
        # A snapshot taken after a fast run must restore into a
        # pipeline that continues exactly like the oracle would.
        windows = synthetic_windows()
        half = len(windows) // 2
        config = PipelineConfig()
        oracle = DetectionPipeline(config)
        for window in windows:
            oracle._process_window_reference(window)

        fused = DetectionPipeline(config)
        fused.process_windows_fast(windows[:half])
        resumed = DetectionPipeline.restore(fused.snapshot(), config=config)
        resumed.process_windows_fast(windows[half:])
        assert resumed.digest() == oracle.digest()
        assert snapshot_json(resumed) == snapshot_json(oracle)


class TestKOfNRunningCount:
    """The O(1) running count must always equal the ring-buffer sum."""

    def test_count_tracks_window_sum(self):
        filt = KOfNFilter(k=3, n=5)
        rng = np.random.default_rng(13)
        for raw in rng.random(200) < 0.5:
            filt.update(bool(raw))
            assert filt._count == sum(filt._window)
            assert filt.active == (filt._count >= filt.k)

    def test_reset_and_restore_rebuild_count(self):
        filt = KOfNFilter(k=2, n=4)
        for raw in (True, True, False, True):
            filt.update(raw)
        payload = filt.state_dict()
        filt.reset()
        assert filt._count == 0 and not filt.active

        from repro.core.filtering import filter_from_state_dict

        restored = filter_from_state_dict(payload)
        assert restored._count == sum(restored._window)
        assert restored.active


class TestGroupMeans:
    """The certificates' Eq. 5 group means must be the oracle's floats
    (two or more attributes: single-attribute windows never certify,
    and NumPy sums a contiguous column pairwise)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_equal_to_numpy_mean(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            n_rows = int(rng.integers(2, 12))
            scale = 10.0 ** int(rng.integers(-3, 6))
            rows = rng.normal(0.0, scale, (n_rows, int(rng.integers(2, 4))))
            rows[rng.random(n_rows) < 0.2] *= -0.0  # signed zeros
            order = rng.permutation(n_rows)
            cut = int(rng.integers(1, n_rows))
            groups = [sorted(order[:cut].tolist()), sorted(order[cut:].tolist())]
            means = pipeline_module._group_means(rows.tolist(), groups)
            for group, mean in zip(groups, means):
                expected = np.mean(rows[group], axis=0).tolist()
                assert [repr(x) for x in mean] == [repr(x) for x in expected]


class TestOtherSteps:
    """Each target's largest Eq. 6 step of any other state, answered
    from the window's two largest steps, is the brute-force maximum:
    tied leaders, zero steps and lone movers included."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        ties = 0
        for _ in range(300):
            n_states = int(rng.integers(1, 7))
            # Few distinct vectors and goals, so step lengths tie often.
            vecs = rng.normal(0.0, 5.0, (3, 2))[rng.integers(0, 3, n_states)]
            pool = rng.normal(0.0, 5.0, (2, 2)).tolist()
            targets = rng.permutation(n_states)[
                : int(rng.integers(1, n_states + 1))
            ].tolist()
            goals = [
                vecs[target].tolist()
                if rng.random() < 0.2
                else pool[int(rng.integers(0, 2))]
                for target in targets
            ]
            _, steps, others = pipeline_module._eq6_moves(
                vecs.tolist(), targets, goals, 0.1
            )
            assert list(others) == targets
            for target in targets:
                assert others[target] == max(
                    [step for index, step in steps.items() if index != target],
                    default=0.0,
                )
            ties += len(set(steps.values())) < len(steps)
        assert ties > 0
