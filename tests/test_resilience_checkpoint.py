"""Checkpoint/restore: component state dicts and the pipeline round-trip
property (a restored pipeline continues a trace exactly like the
original)."""

import json

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.core.alarms import AlarmGenerator
from repro.core.clustering import OnlineStateClusterer
from repro.core.filtering import (
    CUSUMFilter,
    FilterBank,
    KOfNFilter,
    SPRTFilter,
    filter_from_state_dict,
)
from repro.core.identification import identify_window
from repro.core.online_hmm import OnlineHMM
from repro.core.tracks import TrackManager
from repro.resilience import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointVersionError,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.sensornet import ObservationWindow, SensorMessage
from repro.sensornet.collector import windows_from_arrays


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


def faulty_trace(n_windows, fault_from=9, n_sensors=5):
    """Healthy windows, then sensor 4 stuck at an outlier value."""
    rng = np.random.default_rng(7)
    windows = []
    for i in range(1, n_windows + 1):
        base = (20.0 + rng.normal(0, 0.2), 75.0 + rng.normal(0, 0.5))
        readings = {s: base for s in range(n_sensors)}
        if i >= fault_from:
            readings[4] = (55.0, 5.0)
        windows.append(window(i, readings))
    return windows


def regime_trace(seed, n_windows=80, n_sensors=6, dwell=40, noise=0.3):
    """Array windows alternating between two levels every ``dwell``."""
    rng = np.random.default_rng(seed)
    index = np.repeat(np.arange(n_windows), n_sensors)
    hot = (index // dwell) % 2
    values = np.array([10.0, 15.0]) + 12.0 * hot[:, None]
    values = values + rng.normal(0, noise, values.shape)
    return windows_from_arrays(
        index * 60.0 + 1.0,
        np.tile(np.arange(n_sensors), n_windows),
        values,
        PipelineConfig().window_minutes,
    )


def json_round_trip(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


class TestComponentStateDicts:
    def test_clusterer_round_trip(self):
        clusterer = OnlineStateClusterer(
            initial_vectors=[np.array([20.0, 75.0]), np.array([40.0, 30.0])]
        )
        clusterer.update(np.array([[21.0, 74.0], [39.0, 31.0], [20.5, 74.5]]))
        clusterer.maybe_spawn(np.array([90.0, 90.0]))
        rebuilt = OnlineStateClusterer.from_state_dict(
            json_round_trip(clusterer.state_dict())
        )
        assert rebuilt.n_states == clusterer.n_states
        probe = np.array([20.8, 74.2])
        assert rebuilt.assign(probe) == clusterer.assign(probe)
        for original, copy in zip(
            clusterer.states.vectors(), rebuilt.states.vectors()
        ):
            np.testing.assert_array_equal(original, copy)

    def test_online_hmm_round_trip(self):
        hmm = OnlineHMM(transition_innovation=0.25, emission_innovation=0.25)
        for correct, observed in [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]:
            hmm.observe(correct, observed)
        rebuilt = OnlineHMM.from_state_dict(json_round_trip(hmm.state_dict()))
        assert rebuilt.n_updates == hmm.n_updates
        np.testing.assert_array_equal(
            rebuilt.transition_matrix()[0], hmm.transition_matrix()[0]
        )
        np.testing.assert_array_equal(
            rebuilt.emission_matrix().matrix, hmm.emission_matrix().matrix
        )
        # Both must evolve identically from here on.
        hmm.observe(1, 1)
        rebuilt.observe(1, 1)
        np.testing.assert_array_equal(
            rebuilt.emission_matrix().matrix, hmm.emission_matrix().matrix
        )

    def test_empty_hmm_round_trip(self):
        hmm = OnlineHMM()
        rebuilt = OnlineHMM.from_state_dict(json_round_trip(hmm.state_dict()))
        assert rebuilt.n_updates == 0

    @pytest.mark.parametrize(
        "filt",
        [
            KOfNFilter(k=3, n=5),
            SPRTFilter(),
            CUSUMFilter(),
        ],
    )
    def test_filter_round_trip(self, filt):
        for raw in [True, True, False, True]:
            filt.update(raw)
        rebuilt = filter_from_state_dict(json_round_trip(filt.state_dict()))
        assert type(rebuilt) is type(filt)
        assert rebuilt.active == filt.active
        # Identical future behaviour, not just identical flags.
        for raw in [True, False, True, True, True]:
            assert rebuilt.update(raw) == filt.update(raw)

    def test_unknown_filter_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown alarm filter kind"):
            filter_from_state_dict({"kind": "median"})

    def test_filter_bank_round_trip(self):
        bank = FilterBank(factory=lambda: KOfNFilter(k=2, n=3))
        for i in range(4):
            bank.update(i, {0: True, 1: False})
        rebuilt = FilterBank(factory=lambda: KOfNFilter(k=2, n=3))
        rebuilt.load_state_dict(json_round_trip(bank.state_dict()))
        assert bank.update(5, {0: True, 1: True}) == rebuilt.update(
            5, {0: True, 1: True}
        )

    def test_track_manager_round_trip(self):
        tracks = TrackManager(
            transition_innovation=0.25, emission_innovation=0.25
        )
        tracks.open_track(4, window_index=3)
        tracks.record_window(0, {4: 1})
        tracks.record_window(0, {4: 1})
        rebuilt = TrackManager.from_state_dict(
            json_round_trip(tracks.state_dict())
        )
        assert len(rebuilt.tracks) == len(tracks.tracks)
        original = tracks.latest_track_for(4)
        copy = rebuilt.latest_track_for(4)
        assert copy.opened_window == original.opened_window
        assert copy.symbols == original.symbols
        np.testing.assert_array_equal(
            copy.model.emission_matrix().matrix,
            original.model.emission_matrix().matrix,
        )
        # The rebuilt manager still routes new symbols to the open track.
        rebuilt.record_window(0, {4: 1})
        assert len(rebuilt.latest_track_for(4).symbols) == 3

    def test_alarm_generator_round_trip(self):
        generator = AlarmGenerator()
        clusterer = OnlineStateClusterer(
            initial_vectors=[np.array([20.0, 75.0]), np.array([55.0, 5.0])]
        )
        per_sensor = {
            0: np.array([20.0, 75.0]),
            1: np.array([20.5, 74.5]),
            2: np.array([55.0, 5.0]),
        }
        identification = identify_window(
            clusterer, per_sensor, overall_mean=np.array([20.2, 74.8])
        )
        alarms = generator.process(1, identification)
        assert alarms, "fixture should raise a raw alarm for sensor 2"
        rebuilt = AlarmGenerator.from_state_dict(
            json_round_trip(generator.state_dict())
        )
        assert len(rebuilt.alarms) == len(generator.alarms)
        assert rebuilt.alarms[0].sensor_id == generator.alarms[0].sensor_id


class TestConfigJson:
    def test_round_trip(self):
        config = PipelineConfig(window_samples=8, alpha=0.3)
        config.classifier.orthogonality_threshold = 0.5
        rebuilt = PipelineConfig.from_json_dict(
            json_round_trip(config.to_json_dict())
        )
        assert rebuilt == config

    def test_unknown_field_rejected(self):
        payload = PipelineConfig().to_json_dict()
        payload["not_a_field"] = 1
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_json_dict(payload)

    def test_removed_knobs_are_dropped(self):
        """Payloads written while the config still carried
        ``drop_non_finite`` and ``checkpoint_every_windows`` restore."""
        config = PipelineConfig(window_samples=8)
        payload = config.to_json_dict()
        payload.update(drop_non_finite=True, checkpoint_every_windows=5)
        assert PipelineConfig.from_json_dict(payload) == config

    def test_only_legacy_fields_are_dropped(self):
        payload = PipelineConfig().to_json_dict()
        payload.update(backend="compiled", n_jobs=2, not_a_field=1)
        with pytest.raises(ValueError, match="not_a_field"):
            PipelineConfig.from_json_dict(payload)


class TestSnapshotRestore:
    def test_legacy_config_keys_restore_and_resume(self):
        """A checkpoint written when the config still carried ``backend``
        and ``n_jobs`` restores and resumes to an uninterrupted run."""
        windows = faulty_trace(30, fault_from=9)
        uninterrupted = DetectionPipeline(PipelineConfig())
        for w in windows:
            uninterrupted.process_window(w)

        writer = DetectionPipeline(PipelineConfig())
        for w in windows[:15]:
            writer.process_window(w)
        payload = json_round_trip(snapshot(writer))
        payload["config"].update(backend="compiled", n_jobs=2)
        resumed = restore(payload)
        for w in windows[15:]:
            resumed.process_window(w)
        assert resumed.digest() == uninterrupted.digest()

    def test_fresh_pipeline_round_trip(self):
        pipeline = DetectionPipeline(PipelineConfig())
        rebuilt = restore(json_round_trip(snapshot(pipeline)))
        assert rebuilt.clusterer is None
        assert rebuilt.n_windows == 0
        assert rebuilt.config == pipeline.config

    def test_version_mismatch_rejected(self):
        payload = snapshot(DetectionPipeline())
        payload["checkpoint_format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="checkpoint format version"):
            restore(payload)

    def test_version_error_names_found_and_expected(self):
        payload = snapshot(DetectionPipeline())
        payload["checkpoint_format_version"] = 1  # pre-supervisor layout
        with pytest.raises(CheckpointVersionError) as excinfo:
            restore(payload)
        error = excinfo.value
        assert isinstance(error, ValueError)  # old callers keep working
        assert error.found == 1
        assert error.expected == CHECKPOINT_FORMAT_VERSION
        assert "found 1" in str(error)
        assert f"expected {CHECKPOINT_FORMAT_VERSION}" in str(error)

    def test_version_error_on_missing_version_field(self):
        payload = snapshot(DetectionPipeline())
        del payload["checkpoint_format_version"]
        with pytest.raises(CheckpointVersionError) as excinfo:
            restore(payload)
        assert excinfo.value.found is None

    def test_round_trip_property_mid_trace(self):
        """The headline guarantee: crash mid-trace, restore, and the rest
        of the trace produces *identical* diagnoses and statistics."""
        windows = faulty_trace(30, fault_from=9)
        original = DetectionPipeline(PipelineConfig())
        for w in windows[:15]:
            original.process_window(w)

        rebuilt = restore(json_round_trip(snapshot(original)))
        assert rebuilt.n_windows == original.n_windows

        for w in windows[15:]:
            result_a = original.process_window(w)
            result_b = rebuilt.process_window(w)
            assert result_a.skipped == result_b.skipped
            assert result_a.correct_state == result_b.correct_state
            assert result_a.observable_state == result_b.observable_state
            assert [a.sensor_id for a in result_a.raw_alarms] == [
                a.sensor_id for a in result_b.raw_alarms
            ]

        assert rebuilt.correct_sequence == original.correct_sequence
        assert rebuilt.observable_sequence == original.observable_sequence
        assert len(rebuilt.alarm_generator.alarms) == len(
            original.alarm_generator.alarms
        )
        # B^CO and the per-track B^CE agree bit-for-bit (JSON float
        # serialization round-trips exactly).
        np.testing.assert_array_equal(
            rebuilt.m_co.emission_matrix().matrix,
            original.m_co.emission_matrix().matrix,
        )
        assert len(rebuilt.tracks.tracks) == len(original.tracks.tracks)
        for track_a, track_b in zip(original.tracks.tracks, rebuilt.tracks.tracks):
            np.testing.assert_array_equal(
                track_a.model.emission_matrix().matrix,
                track_b.model.emission_matrix().matrix,
            )

        diagnoses_a = original.diagnose_all()
        diagnoses_b = rebuilt.diagnose_all()
        assert set(diagnoses_a) == set(diagnoses_b)
        for sensor_id in diagnoses_a:
            assert (
                diagnoses_a[sensor_id].anomaly_type
                is diagnoses_b[sensor_id].anomaly_type
            )
            assert diagnoses_a[sensor_id].confidence == pytest.approx(
                diagnoses_b[sensor_id].confidence
            )
        assert (
            original.system_diagnosis().anomaly_type
            is rebuilt.system_diagnosis().anomaly_type
        )

    def test_detects_the_planted_fault_after_restore(self):
        windows = faulty_trace(30, fault_from=9)
        pipeline = DetectionPipeline(PipelineConfig())
        for w in windows[:15]:
            pipeline.process_window(w)
        rebuilt = restore(json_round_trip(snapshot(pipeline)))
        for w in windows[15:]:
            rebuilt.process_window(w)
        assert 4 in rebuilt.diagnose_all()

    def test_snapshot_shares_no_state_with_live_or_restored_pipeline(self):
        # A snapshot dict kept in memory without serialising it is only
        # sound if it never mutates under the live pipeline (or a
        # pipeline restored from it) advancing.
        windows = faulty_trace(80)
        pipeline = DetectionPipeline(PipelineConfig())
        pipeline.process_windows_fast(windows[:40])

        stored = snapshot(pipeline)
        frozen = json.dumps(stored, sort_keys=True)

        pipeline.process_windows_fast(windows[40:])
        assert json.dumps(stored, sort_keys=True) == frozen

        restored = restore(stored)
        restored.process_windows_fast(windows[40:])
        assert json.dumps(stored, sort_keys=True) == frozen
        assert restored.digest() == pipeline.digest()

    def test_checkpoint_mid_steady_stretch(self):
        # A fast-path batch that ends inside a certified steady stretch
        # must fold the deferred run-length state into the snapshot, and
        # the restored pipeline must continue bit-identically.
        windows = regime_trace(seed=300)
        split = 30  # inside the first dwell's certified stretch
        probe = DetectionPipeline(PipelineConfig())
        for w in windows[:split]:
            probe.process_window(w)
        assert probe._steady is not None

        reference = DetectionPipeline(PipelineConfig())
        reference.process_windows_fast(windows[:split])
        reference.process_windows_fast(windows[split:])

        first = DetectionPipeline(PipelineConfig())
        first.process_windows_fast(windows[:split])
        resumed = restore(json_round_trip(snapshot(first)))
        resumed.process_windows_fast(windows[split:])

        assert reference.digest() == resumed.digest()
        assert json.dumps(snapshot(reference), sort_keys=True) == json.dumps(
            snapshot(resumed), sort_keys=True
        )

    def test_config_override(self):
        pipeline = DetectionPipeline(PipelineConfig())
        override = PipelineConfig(window_samples=6)
        rebuilt = restore(snapshot(pipeline), config=override)
        assert rebuilt.config.window_samples == 6

    def test_file_round_trip(self, tmp_path):
        windows = faulty_trace(12)
        pipeline = DetectionPipeline(PipelineConfig())
        for w in windows:
            pipeline.process_window(w)
        path = tmp_path / "checkpoints" / "state.json"
        save_checkpoint(pipeline, path)
        rebuilt = load_checkpoint(path)
        assert rebuilt.n_windows == 12
        assert rebuilt.correct_sequence == pipeline.correct_sequence

    def test_pipeline_snapshot_restore_methods(self):
        pipeline = DetectionPipeline(PipelineConfig())
        pipeline.process_window(
            window(1, {s: (20.0, 75.0) for s in range(5)})
        )
        rebuilt = DetectionPipeline.restore(pipeline.snapshot())
        assert rebuilt.n_windows == 1
        assert rebuilt.clusterer.n_states == pipeline.clusterer.n_states

    def test_exported_from_serialization_module(self):
        from repro.analysis import serialization

        assert serialization.CHECKPOINT_FORMAT_VERSION == CHECKPOINT_FORMAT_VERSION
        assert serialization.save_checkpoint is save_checkpoint
        assert serialization.load_checkpoint is load_checkpoint
