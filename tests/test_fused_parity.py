"""Fused engine vs per-window oracle: bit-identical or the test fails.

The struct-of-arrays batch path (``process_windows_fast``) only earns
its speedup if it is *exactly* the per-window oracle
(``_process_window_reference``) — same digests, same checkpoint
snapshots, same ``WindowResult`` stream, under every alarm-filter kind
and supervisor mode (``tests/test_stream_parity.py`` does the same for
the streamed ``process_window``).  Every assertion here is exact ``==`` (no tolerances): the fused
engine's certified shortcuts (vector filter banks, incremental
clustering caches, steady-stretch certification) are go/no-go caches
that must never change a single bit of output.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.core.filtering import (
    CUSUMFilter,
    FilterBank,
    KOfNFilter,
    SPRTFilter,
    VectorFilterBank,
)
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


def _scalar_bank(kind: str) -> FilterBank:
    factory = {
        "k_of_n": KOfNFilter,
        "sprt": SPRTFilter,
        "cusum": CUSUMFilter,
    }[kind]
    return FilterBank(factory=factory)


def _vector_bank(kind: str) -> VectorFilterBank:
    prototype = {
        "k_of_n": KOfNFilter,
        "sprt": SPRTFilter,
        "cusum": CUSUMFilter,
    }[kind]()
    return VectorFilterBank.from_prototype(prototype)


def _raw_stream(n_windows: int, n_sensors: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    return rng.random((n_windows, n_sensors)) < 0.4


class TestFilterBankStateDictInterchange:
    """Scalar and vector banks must share one checkpoint format."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_state_dicts_match_after_identical_streams(self, kind):
        scalar = _scalar_bank(kind)
        vector = _vector_bank(kind)
        sensor_ids = np.arange(6)
        for index, raws in enumerate(_raw_stream(50, 6)):
            scalar_out = scalar.update(
                index, {int(s): bool(r) for s, r in zip(sensor_ids, raws)}
            )
            vector_out = vector.update_batch(index, sensor_ids, raws)
            assert scalar_out == vector_out
        assert scalar.state_dict() == vector.state_dict()

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_cross_round_trip_continues_identically(self, kind):
        # scalar -> vector and vector -> scalar restores must both
        # continue the stream exactly where the original left off.
        sensor_ids = np.arange(6)
        stream = _raw_stream(80, 6, seed=9)
        scalar = _scalar_bank(kind)
        for index, raws in enumerate(stream[:40]):
            scalar.update(
                index, {int(s): bool(r) for s, r in zip(sensor_ids, raws)}
            )

        vector = _vector_bank(kind)
        vector.load_state_dict(scalar.state_dict())
        assert vector.state_dict() == scalar.state_dict()

        back = _scalar_bank(kind)
        back.load_state_dict(vector.state_dict())
        assert back.state_dict() == scalar.state_dict()

        for index, raws in enumerate(stream[40:], start=40):
            raw_map = {int(s): bool(r) for s, r in zip(sensor_ids, raws)}
            assert (
                scalar.update(index, raw_map)
                == vector.update_batch(index, sensor_ids, raws)
                == back.update(index, raw_map)
            )
        assert scalar.state_dict() == vector.state_dict()
        assert scalar.state_dict() == back.state_dict()

    def test_vector_bank_rejects_mixed_kind_payload(self):
        scalar = FilterBank(factory=KOfNFilter)
        scalar.update(0, {0: True})
        mixed = _scalar_bank("sprt")
        mixed.update(0, {1: True})
        payload = scalar.state_dict()
        payload["filters"].append(mixed.state_dict()["filters"][0])
        vector = _vector_bank("k_of_n")
        with pytest.raises(ValueError):
            vector.load_state_dict(payload)


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


class TestFixedRawPlan:
    """A stretch defers k-of-n updates under fixed raws: the planned
    flips and the bulk advance must equal update-by-update."""

    @pytest.mark.parametrize("deferred", range(0, 13))
    def test_plan_and_advance_match_update_batch(self, deferred):
        rng = np.random.default_rng(deferred)
        sensor_ids = np.arange(6)
        raws = np.array([True, False, True, False, False, True])
        for warmup in range(5, 10):
            planned = _vector_bank("k_of_n")
            stepped = _vector_bank("k_of_n")
            for index, window in enumerate(_raw_stream(warmup, 6, seed=warmup)):
                planned.update_batch(index, sensor_ids, window)
                stepped.update_batch(index, sensor_ids, window)
            flips = planned.fixed_raw_flips(sensor_ids, raws)
            emitted = {}
            for step in range(deferred):
                for transition in stepped.update_batch(100 + step, sensor_ids, raws):
                    emitted.setdefault(step, []).append(
                        (transition.sensor_id, transition.raised)
                    )
            planned.advance_fixed(raws, deferred)
            assert {s: f for s, f in flips.items() if s < deferred} == emitted
            assert planned.state_dict() == stepped.state_dict()
            # ...and both keep stepping identically afterwards.
            for index, window in enumerate(_raw_stream(4, 6, seed=rng.integers(99))):
                assert planned.update_batch(200 + index, sensor_ids, window) == (
                    stepped.update_batch(200 + index, sensor_ids, window)
                )

    def test_only_lockstep_k_of_n_plans(self):
        sensor_ids = np.arange(4)
        raws = np.zeros(4, dtype=bool)
        for kind in ("sprt", "cusum"):
            bank = _vector_bank(kind)
            bank.update_batch(0, sensor_ids, raws)
            assert bank.fixed_raw_flips(sensor_ids, raws) is None
        bank = _vector_bank("k_of_n")
        bank.update_batch(0, sensor_ids, raws)
        # A window missing a live sensor cannot be planned.
        assert bank.fixed_raw_flips(sensor_ids[:3], raws[:3]) is None
        assert bank.fixed_raw_flips(sensor_ids, raws) == {}
        # Nor can one whose new sensor breaks the rings' lockstep.
        grown = np.arange(5)
        assert bank.fixed_raw_flips(grown, np.zeros(5, dtype=bool)) is None


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
