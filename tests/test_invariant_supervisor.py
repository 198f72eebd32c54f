"""Tests for the runtime invariant supervisor, the majority-assumption
meta-alarm, and the invariant registry's checks and repairs."""

import json

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.resilience.checkpoint import restore, snapshot
from repro.resilience.invariants import (
    DEFAULT_INVARIANTS,
    InvariantViolationError,
    InvariantWarning,
    check_invariants,
)
from repro.resilience.supervisor import PipelineSupervisor
from repro.sensornet import ObservationWindow, SensorMessage
from repro.traces.schema import Trace, TraceRecord
from repro.traces.windows import window_trace_columnar


def window(index, readings, minutes_per_window=60.0):
    """Build a window from {sensor_id: (temp, humidity)}."""
    start = (index - 1) * minutes_per_window
    messages = tuple(
        SensorMessage(
            sensor_id=sid, timestamp=start + 1.0, attributes=tuple(attrs)
        )
        for sid, attrs in sorted(readings.items())
    )
    return ObservationWindow(
        index=index,
        start_minutes=start,
        end_minutes=start + minutes_per_window,
        messages=messages,
        n_attributes=2,
    )


def healthy_readings(value=(20.0, 75.0), n_sensors=8):
    return {i: value for i in range(n_sensors)}


def split_readings(n_sensors=8):
    """A coordinated corruption: sensors split across four distant
    positions so no cluster holds a majority."""
    positions = [(20.0, 75.0), (120.0, 5.0), (-80.0, 160.0), (220.0, -60.0)]
    return {
        i: positions[i % len(positions)] for i in range(n_sensors)
    }


def supervised_config(mode="warn", k=3, recovery=3):
    return PipelineConfig(
        supervisor_mode=mode,
        supervisor_majority_windows=k,
        supervisor_recovery_windows=recovery,
    )


class TestConfig:
    def test_default_mode_off_builds_no_supervisor(self):
        assert DetectionPipeline(PipelineConfig()).supervisor is None

    def test_active_mode_builds_supervisor(self):
        pipeline = DetectionPipeline(supervised_config("warn"))
        assert isinstance(pipeline.supervisor, PipelineSupervisor)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="supervisor_mode"):
            PipelineConfig(supervisor_mode="panic")

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(supervisor_majority_windows=0)
        with pytest.raises(ValueError):
            PipelineConfig(supervisor_recovery_windows=0)

    def test_config_round_trips_supervisor_fields(self):
        config = supervised_config("repair", k=5, recovery=2)
        rebuilt = PipelineConfig.from_json_dict(config.to_json_dict())
        assert rebuilt.supervisor_mode == "repair"
        assert rebuilt.supervisor_majority_windows == 5
        assert rebuilt.supervisor_recovery_windows == 2


class TestHealthyStream:
    def test_no_violations_no_alarms_on_healthy_stream(self):
        pipeline = DetectionPipeline(supervised_config("warn"))
        for i in range(1, 20):
            pipeline.process_window(window(i, healthy_readings()))
        assert pipeline.supervisor.violations == []
        assert pipeline.supervisor.meta_alarms == []
        assert not pipeline.supervisor.learning_frozen

    def test_supervised_run_matches_unsupervised_behaviour(self):
        """With no violation and no meta-alarm, supervision is inert:
        sequences, models, and diagnoses match the unsupervised run."""
        plain = DetectionPipeline(PipelineConfig())
        watched = DetectionPipeline(supervised_config("warn"))
        for i in range(1, 25):
            readings = healthy_readings()
            if i > 10:
                readings[3] = (90.0, 10.0)  # one faulty sensor: minority
            plain.process_window(window(i, readings))
            watched.process_window(window(i, readings))
        assert plain.correct_sequence == watched.correct_sequence
        assert plain.observable_sequence == watched.observable_sequence
        assert plain.m_co.state_dict() == watched.m_co.state_dict()
        assert watched.supervisor.meta_alarms == []


class TestMajorityMetaAlarm:
    def test_meta_alarm_raises_and_freezes_learning(self):
        pipeline = DetectionPipeline(supervised_config("warn", k=3))
        for i in range(1, 11):
            pipeline.process_window(window(i, healthy_readings()))
        updates_before = pipeline.m_co.n_updates
        sequence_before = len(pipeline.correct_sequence)

        results = []
        for i in range(11, 17):
            results.append(
                pipeline.process_window(window(i, split_readings()))
            )
        supervisor = pipeline.supervisor
        assert supervisor.learning_frozen
        assert len(supervisor.meta_alarms) == 1
        alarm = supervisor.meta_alarms[0]
        assert alarm.is_active
        assert alarm.raised_window == 13  # k=3rd consecutive bad window
        # The first two bad windows still learned; from the k-th on the
        # beta/gamma updates and sequence appends are frozen.
        assert pipeline.m_co.n_updates == updates_before + 2
        assert len(pipeline.correct_sequence) == sequence_before + 2
        assert [r.learning_frozen for r in results] == [
            False, False, True, True, True, True,
        ]

    def test_meta_alarm_clears_and_learning_resumes(self):
        pipeline = DetectionPipeline(supervised_config("warn", k=3, recovery=2))
        for i in range(1, 6):
            pipeline.process_window(window(i, healthy_readings()))
        for i in range(6, 11):
            pipeline.process_window(window(i, split_readings()))
        assert pipeline.supervisor.learning_frozen
        frozen_updates = pipeline.m_co.n_updates

        recovery_results = []
        for i in range(11, 16):
            recovery_results.append(
                pipeline.process_window(window(i, healthy_readings()))
            )
        supervisor = pipeline.supervisor
        assert not supervisor.learning_frozen
        alarm = supervisor.meta_alarms[0]
        assert alarm.cleared_window == 12  # 2nd consecutive healthy window
        assert not alarm.is_active
        # The clearing window itself learns again.
        assert pipeline.m_co.n_updates == frozen_updates + 4
        assert recovery_results[0].learning_frozen
        assert not recovery_results[1].learning_frozen

    def test_short_majority_dips_do_not_alarm(self):
        pipeline = DetectionPipeline(supervised_config("warn", k=3))
        for i in range(1, 20):
            readings = (
                split_readings() if i % 3 == 0 else healthy_readings()
            )
            pipeline.process_window(window(i, readings))
        assert pipeline.supervisor.meta_alarms == []

    def test_detection_continues_while_frozen(self):
        """Alarm generation and filtering keep running under freeze."""
        pipeline = DetectionPipeline(supervised_config("warn", k=1))
        for i in range(1, 6):
            pipeline.process_window(window(i, healthy_readings()))
        n_results = 0
        for i in range(6, 14):
            result = pipeline.process_window(window(i, split_readings()))
            assert result.learning_frozen
            assert result.identification is not None
            n_results += 1
        assert n_results == 8


class TestFrozenCheckpoint:
    def test_degraded_checkpoint_round_trips_exactly(self):
        """A checkpoint taken while learning is frozen restores frozen,
        with the meta-alarm active, and continues identically."""
        pipeline = DetectionPipeline(supervised_config("warn", k=2, recovery=3))
        for i in range(1, 8):
            pipeline.process_window(window(i, healthy_readings()))
        for i in range(8, 12):
            pipeline.process_window(window(i, split_readings()))
        assert pipeline.supervisor.learning_frozen

        payload = json.loads(json.dumps(snapshot(pipeline), sort_keys=True))
        rebuilt = restore(payload)
        assert rebuilt.supervisor is not None
        assert rebuilt.supervisor.learning_frozen
        assert len(rebuilt.supervisor.meta_alarms) == 1
        assert rebuilt.supervisor.meta_alarms[0].is_active
        assert rebuilt.digest() == pipeline.digest()

        # Continuing both on the same stream (recovery included) stays
        # bit-identical through the digest.
        for i in range(12, 20):
            readings = healthy_readings() if i >= 14 else split_readings()
            pipeline.process_window(window(i, readings))
            rebuilt.process_window(window(i, readings))
        assert rebuilt.digest() == pipeline.digest()
        assert not pipeline.supervisor.learning_frozen
        assert not rebuilt.supervisor.learning_frozen


class TestInvariantChecks:
    def build_pipeline(self, mode="warn", windows=6):
        pipeline = DetectionPipeline(supervised_config(mode))
        for i in range(1, windows + 1):
            readings = healthy_readings()
            if i >= 3:
                readings[5] = (95.0, 5.0)  # keeps a track open
            pipeline.process_window(window(i, readings))
        return pipeline

    def test_healthy_pipeline_has_no_violations(self):
        pipeline = self.build_pipeline()
        assert check_invariants(pipeline) == []

    def test_registry_names(self):
        names = [inv.name for inv in DEFAULT_INVARIANTS]
        assert names == [
            "finite-state-centroids",
            "state-count-bound",
            "alias-acyclicity",
            "row-stochastic-models",
            "bounded-track-lengths",
        ]

    def test_non_finite_centroid_detected_and_repaired(self):
        pipeline = self.build_pipeline(mode="repair")
        states = pipeline.clusterer.states
        poisoned_id = states.state_ids[-1]
        states.update_vector(poisoned_id, np.array([np.nan, np.inf]))
        violations = check_invariants(pipeline)
        assert any(
            v.invariant == "finite-state-centroids" for v in violations
        )
        recorded = pipeline.supervisor.after_window(pipeline)
        assert any("expelled" in v.action for v in recorded)
        assert check_invariants(pipeline) == []
        # The expelled id still resolves (aliased to a finite survivor).
        resolved = pipeline.clusterer.resolve(poisoned_id)
        assert np.all(
            np.isfinite(pipeline.clusterer.state_vector(resolved))
        )

    def test_all_centroids_poisoned_clears_clusterer(self):
        pipeline = self.build_pipeline(mode="repair")
        states = pipeline.clusterer.states
        for state_id in list(states.state_ids):
            states.update_vector(state_id, np.array([np.nan, np.nan]))
        pipeline.supervisor.after_window(pipeline)
        assert pipeline.clusterer is None
        # The next window re-bootstraps and processes normally.
        result = pipeline.process_window(window(50, healthy_readings()))
        assert not result.skipped
        assert pipeline.clusterer is not None

    def test_state_count_overflow_detected_and_merged(self):
        pipeline = self.build_pipeline(mode="repair")
        clusterer = pipeline.clusterer
        rng = np.random.default_rng(7)
        while clusterer.n_states <= clusterer.max_states:
            clusterer.states.spawn(rng.uniform(-500, 500, size=2))
        violations = check_invariants(pipeline)
        assert any(v.invariant == "state-count-bound" for v in violations)
        pipeline.supervisor.after_window(pipeline)
        assert clusterer.n_states <= clusterer.max_states
        assert check_invariants(pipeline) == []

    def test_alias_cycle_detected_and_repaired(self):
        pipeline = self.build_pipeline(mode="repair")
        states = pipeline.clusterer.states
        states._aliases[9001] = 9002
        states._aliases[9002] = 9001
        violations = check_invariants(pipeline)
        assert any(v.invariant == "alias-acyclicity" for v in violations)
        pipeline.supervisor.after_window(pipeline)
        assert check_invariants(pipeline) == []
        assert states.resolve(9001) in states._states

    def test_degenerate_hmm_row_renormalized(self):
        pipeline = self.build_pipeline(mode="repair")
        pipeline.m_co._emission[0] *= 0.5  # near-degenerate row
        violations = check_invariants(pipeline)
        assert any(
            v.invariant == "row-stochastic-models" for v in violations
        )
        recorded = pipeline.supervisor.after_window(pipeline)
        assert any("renormalized" in v.action for v in recorded)
        assert pipeline.m_co.is_row_stochastic()

    def test_poisoned_hmm_reinitialized_to_identity(self):
        pipeline = self.build_pipeline(mode="repair")
        pipeline.m_co._emission[:] = np.nan
        recorded = pipeline.supervisor.after_window(pipeline)
        assert any("identity" in v.action for v in recorded)
        assert pipeline.m_co.is_row_stochastic()
        matrix, _ = pipeline.m_co.transition_matrix()
        assert np.allclose(matrix, np.eye(matrix.shape[0]))

    def test_overlong_track_detected_and_truncated(self):
        pipeline = self.build_pipeline(mode="repair")
        track = pipeline.tracks.tracks[0]
        correct = pipeline.correct_sequence[-1]
        for _ in range(50):  # far more than windows elapsed
            track.record(correct, correct + 1)
        violations = check_invariants(pipeline)
        assert any(
            v.invariant == "bounded-track-lengths" for v in violations
        )
        pipeline.supervisor.after_window(pipeline)
        assert check_invariants(pipeline) == []
        assert track.length <= pipeline.n_windows
        assert track.model.is_row_stochastic()
        assert track.model.n_updates == track.length


class TestModes:
    def corrupt(self, pipeline):
        states = pipeline.clusterer.states
        states.update_vector(
            states.state_ids[0], np.array([np.nan, np.nan])
        )

    def build(self, mode):
        pipeline = DetectionPipeline(supervised_config(mode))
        for i in range(1, 4):
            pipeline.process_window(window(i, healthy_readings()))
        return pipeline

    def test_warn_mode_warns_and_records(self):
        pipeline = self.build("warn")
        self.corrupt(pipeline)
        with pytest.warns(InvariantWarning, match="finite-state-centroids"):
            pipeline.process_window(window(4, healthy_readings()))
        assert any(
            v.invariant == "finite-state-centroids"
            for v in pipeline.supervisor.violations
        )

    def test_raise_mode_raises(self):
        pipeline = self.build("raise")
        self.corrupt(pipeline)
        with pytest.raises(InvariantViolationError, match="finite-state"):
            pipeline.process_window(window(4, healthy_readings()))

    def test_repair_mode_heals_in_stride(self):
        pipeline = self.build("repair")
        self.corrupt(pipeline)
        result = pipeline.process_window(window(4, healthy_readings()))
        assert not result.skipped
        assert check_invariants(pipeline) == []
        assert pipeline.supervisor.violations  # recorded with action
        assert all(v.action for v in pipeline.supervisor.violations)


class TestDegenerateWindowsEndToEnd:
    def trace_with_gaps(self):
        """A trace whose windowing yields empty and single-sensor
        windows: hour 1 full, hour 2 empty (gap), hour 3 single-sensor,
        hours 4-6 full again."""
        records = []
        for hour, minute in [(0, m) for m in range(0, 60, 5)]:
            for sensor in range(6):
                records.append(
                    TraceRecord(
                        sensor_id=sensor,
                        timestamp=hour * 60.0 + minute,
                        attributes=(20.0 + 0.01 * sensor, 75.0),
                    )
                )
        # hour 1 (minutes 60-120): nothing delivered at all.
        for minute in range(0, 60, 5):  # hour 2: one sensor only
            records.append(
                TraceRecord(
                    sensor_id=2,
                    timestamp=120.0 + minute,
                    attributes=(20.02, 75.0),
                )
            )
        for hour in (3, 4, 5):
            for minute in range(0, 60, 5):
                for sensor in range(6):
                    records.append(
                        TraceRecord(
                            sensor_id=sensor,
                            timestamp=hour * 60.0 + minute,
                            attributes=(20.0 + 0.01 * sensor, 75.0),
                        )
                    )
        return Trace(records=records)

    @pytest.mark.parametrize("mode", ["off", "warn", "repair"])
    def test_process_trace_handles_gap_and_single_sensor(self, mode):
        config = PipelineConfig(supervisor_mode=mode)
        pipeline = DetectionPipeline(config)
        results = [
            pipeline.process_window(window)
            for window in window_trace_columnar(
                self.trace_with_gaps(), config.window_minutes
            )
        ]
        assert len(results) == 6
        assert results[1].skipped  # the empty window
        assert not results[2].skipped  # the single-sensor window
        assert results[2].identification.n_sensors == 1
        if pipeline.supervisor is not None:
            assert pipeline.supervisor.violations == []

    def test_empty_window_shape_contract(self):
        """Hand-built (0, n_attributes) windows pass the supervised
        pipeline and the invariant checks."""
        pipeline = DetectionPipeline(supervised_config("raise"))
        empty = window(1, {})
        assert empty.observations.shape == (0, 2)
        result = pipeline.process_window(empty)
        assert result.skipped
        pipeline.process_window(window(2, {0: (20.0, 75.0)}))
        assert check_invariants(pipeline) == []


class TestSupervisorStateDict:
    def test_round_trip(self):
        supervisor = PipelineSupervisor(mode="warn", majority_windows=2)
        pipeline = DetectionPipeline(supervised_config("warn", k=2))
        for i in range(1, 4):
            pipeline.process_window(window(i, split_readings()))
        state = pipeline.supervisor.state_dict()
        state = json.loads(json.dumps(state, sort_keys=True))
        supervisor.load_state_dict(state)
        assert supervisor.learning_frozen == pipeline.supervisor.learning_frozen
        assert supervisor.state_dict() == pipeline.supervisor.state_dict()
        assert (
            supervisor.digest_payload()
            == pipeline.supervisor.digest_payload()
        )
