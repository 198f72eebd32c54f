"""Unit tests for repro.core.pipeline (the Fig. 1 loop) on small
hand-built window streams."""

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.sensornet import ObservationWindow, SensorMessage


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
    )


def healthy_readings(value=(20.0, 75.0), n_sensors=5):
    return {i: value for i in range(n_sensors)}


class TestBootstrap:
    def test_first_window_bootstraps_states(self):
        pipeline = DetectionPipeline(PipelineConfig())
        pipeline.process_window(window(1, healthy_readings()))
        assert pipeline.clusterer is not None
        assert pipeline.clusterer.n_states >= 1

    def test_explicit_initial_states_used(self):
        initial = [np.array([20.0, 75.0]), np.array([40.0, 30.0])]
        pipeline = DetectionPipeline(PipelineConfig(), initial_states=initial)
        pipeline.process_window(window(1, healthy_readings()))
        assert pipeline.clusterer.n_states == 2

    def test_default_config_constructed_lazily(self):
        pipeline = DetectionPipeline()
        assert pipeline.config.window_samples == 12


class TestWindowProcessing:
    def test_skipped_empty_window(self):
        pipeline = DetectionPipeline()
        result = pipeline.process_window(window(1, {}))
        assert result.skipped
        assert result.observable_state is None
        assert pipeline.n_windows == 1

    def test_healthy_window_has_no_alarms(self):
        pipeline = DetectionPipeline()
        result = pipeline.process_window(window(1, healthy_readings()))
        assert not result.skipped
        assert result.raw_alarms == ()
        assert result.correct_state == result.observable_state

    def test_outlier_sensor_raises_raw_alarm(self):
        pipeline = DetectionPipeline()
        readings = healthy_readings()
        readings[4] = (55.0, 5.0)
        result = pipeline.process_window(window(1, readings))
        assert [a.sensor_id for a in result.raw_alarms] == [4]

    def test_sequences_accumulate(self):
        pipeline = DetectionPipeline()
        for i in range(1, 4):
            pipeline.process_window(window(i, healthy_readings()))
        assert len(pipeline.correct_sequence) == 3
        assert len(pipeline.observable_sequence) == 3

    def test_m_co_updated_per_window(self):
        pipeline = DetectionPipeline()
        for i in range(1, 4):
            pipeline.process_window(window(i, healthy_readings()))
        assert pipeline.m_co.n_updates == 3

    def test_process_windows_batch(self):
        pipeline = DetectionPipeline()
        consumed = pipeline.process_windows_fast(
            [window(i, healthy_readings()) for i in range(1, 6)]
        )
        assert consumed == 5
        assert len(pipeline.results) == 5


class TestTrackingFlow:
    def run_with_persistent_outlier(self, n_windows=12):
        pipeline = DetectionPipeline()
        for i in range(1, n_windows + 1):
            readings = healthy_readings()
            if i >= 4:
                readings[4] = (55.0, 5.0)
            pipeline.process_window(window(i, readings))
        return pipeline

    def test_persistent_outlier_opens_track(self):
        pipeline = self.run_with_persistent_outlier()
        assert pipeline.tracks.n_tracks == 1
        track = pipeline.track_for(4)
        assert track is not None
        assert track.sensor_id == 4
        # k-of-n with k=3 means the filtered alarm trails the onset.
        assert track.opened_window >= 6

    def test_track_records_stuck_symbol(self):
        pipeline = self.run_with_persistent_outlier()
        track = pipeline.track_for(4)
        symbols = {symbol for _, symbol in track.symbols}
        assert len(symbols) == 1

    def test_recovered_sensor_track_closes(self):
        pipeline = DetectionPipeline()
        for i in range(1, 25):
            readings = healthy_readings()
            if 4 <= i <= 12:
                readings[4] = (55.0, 5.0)
            pipeline.process_window(window(i, readings))
        track = pipeline.track_for(4)
        assert track is not None
        assert not track.is_open
        assert track.closed_window is not None

    def test_diagnose_sensor_without_track_is_none(self):
        pipeline = DetectionPipeline()
        pipeline.process_window(window(1, healthy_readings()))
        assert pipeline.diagnose_sensor(0) is None

    def test_stuck_outlier_diagnosed_stuck_at(self):
        pipeline = self.run_with_persistent_outlier(n_windows=30)
        diagnosis = pipeline.diagnose_sensor(4)
        assert diagnosis is not None
        assert diagnosis.anomaly_type.value == "stuck_at"

    def test_diagnose_all_covers_tracked_sensors(self):
        pipeline = self.run_with_persistent_outlier(n_windows=30)
        diagnoses = pipeline.diagnose_all()
        assert set(diagnoses) == {4}


class TestModels:
    def test_correct_model_requires_windows(self):
        with pytest.raises(ValueError):
            DetectionPipeline().correct_model()

    def test_models_reflect_environment_regimes(self):
        pipeline = DetectionPipeline()
        for i in range(1, 21):
            value = (20.0, 75.0) if (i // 5) % 2 == 0 else (35.0, 45.0)
            pipeline.process_window(window(i, healthy_readings(value)))
        model = pipeline.correct_model(prune=False)
        assert model.n_states == 2

    def test_observable_equals_correct_for_healthy_network(self):
        pipeline = DetectionPipeline()
        for i in range(1, 11):
            pipeline.process_window(window(i, healthy_readings()))
        assert pipeline.correct_sequence == pipeline.observable_sequence

    def test_state_vectors_cover_hmm_ids(self):
        pipeline = DetectionPipeline()
        for i in range(1, 6):
            pipeline.process_window(window(i, healthy_readings()))
        vectors = pipeline.state_vectors()
        for state_id in pipeline.m_co.state_ids:
            assert state_id in vectors
