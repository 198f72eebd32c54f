"""Hardened ingest: collector quarantine (duplicate/late/non-finite),
delivery bookkeeping including the radio corruption branch, the empty
window shape regression, and the core NaN/Inf guards."""

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.core.clustering import OnlineStateClusterer
from repro.core.identification import identify_window
from repro.sensornet import (
    CollectorNode,
    DeliveryRecord,
    DeliveryStats,
    ObservationWindow,
    RadioLink,
    SensorMessage,
)


def message(sensor_id=0, timestamp=1.0, seq=0, attributes=(20.0, 75.0)):
    return SensorMessage(
        sensor_id=sensor_id,
        timestamp=timestamp,
        attributes=attributes,
        sequence_number=seq,
    )


class TestEmptyWindowShape:
    def test_empty_window_has_attribute_width(self):
        """Regression: empty windows used to collapse to shape (0, 0)."""
        window = ObservationWindow(
            index=1,
            start_minutes=0.0,
            end_minutes=60.0,
            messages=(),
            n_attributes=2,
        )
        assert window.observations.shape == (0, 2)

    def test_default_width_is_zero_for_hand_built_fixtures(self):
        window = ObservationWindow(
            index=1, start_minutes=0.0, end_minutes=60.0, messages=()
        )
        assert window.observations.shape == (0, 0)

    def test_collector_emits_gap_windows_with_learned_width(self):
        collector = CollectorNode(window_minutes=60.0)
        collector.receive_message(message(timestamp=1.0))
        # Window 2 is empty (a radio blackout), window 3 has traffic.
        collector.receive_message(message(timestamp=121.0))
        windows = collector.pop_completed_windows(180.0)
        assert [w.index for w in windows] == [1, 2, 3]
        assert windows[1].is_empty
        assert windows[1].observations.shape == (0, 2)
        # Column-wise code works uniformly across the gap.
        stacked = np.vstack([w.observations for w in windows])
        assert stacked.shape == (2, 2)


class TestQuarantine:
    def test_duplicate_quarantined(self):
        collector = CollectorNode()
        collector.receive_message(message(timestamp=5.0, seq=3))
        collector.receive_message(message(timestamp=5.0, seq=3))
        assert collector.stats.accepted == 1
        assert collector.stats.duplicate == 1

    def test_distinct_sequence_numbers_both_accepted(self):
        collector = CollectorNode()
        collector.receive_message(message(timestamp=5.0, seq=3))
        collector.receive_message(message(timestamp=5.0, seq=4))
        assert collector.stats.accepted == 2
        assert collector.stats.duplicate == 0

    def test_same_key_different_sensor_accepted(self):
        collector = CollectorNode()
        collector.receive_message(message(sensor_id=0, timestamp=5.0, seq=3))
        collector.receive_message(message(sensor_id=1, timestamp=5.0, seq=3))
        assert collector.stats.accepted == 2

    def test_late_message_quarantined(self):
        collector = CollectorNode(window_minutes=60.0)
        collector.receive_message(message(timestamp=5.0))
        collector.pop_completed_windows(60.0)
        # Arrives after its window was emitted (delay or clock skew).
        collector.receive_message(message(timestamp=30.0, seq=9))
        assert collector.stats.late == 1
        assert collector.stats.accepted == 1

    def test_non_finite_message_quarantined(self):
        collector = CollectorNode()
        collector.receive_message(message(attributes=(float("nan"), 75.0)))
        collector.receive_message(message(attributes=(20.0, float("inf")), seq=1))
        collector.receive_message(message(seq=2))
        assert collector.stats.non_finite == 2
        assert collector.stats.accepted == 1

    def test_hardening_can_be_disabled(self):
        collector = CollectorNode(harden_ingest=False)
        collector.receive_message(message(timestamp=5.0, seq=3))
        collector.receive_message(message(timestamp=5.0, seq=3))
        collector.receive_message(message(attributes=(float("nan"), 1.0), seq=4))
        assert collector.stats.accepted == 3
        assert collector.stats.quarantined == 0

    def test_dedup_memory_pruned_after_emission(self):
        collector = CollectorNode(window_minutes=60.0)
        collector.receive_message(message(timestamp=5.0))
        collector.pop_completed_windows(60.0)
        assert collector._seen_keys[0] == set()

    def test_stats_accounting(self):
        stats = DeliveryStats(
            accepted=6, malformed=1, lost=2, duplicate=1, late=2, non_finite=0
        )
        assert stats.quarantined == 3
        assert stats.attempted == 12
        assert stats.acceptance_rate == pytest.approx(0.5)
        assert stats.as_dict() == {
            "accepted": 6,
            "malformed": 1,
            "lost": 2,
            "duplicate": 1,
            "late": 2,
            "non_finite": 0,
        }

    def test_drop_buffer_models_crash(self):
        collector = CollectorNode()
        collector.receive_message(message(timestamp=5.0))
        collector.receive_message(message(timestamp=6.0, seq=1))
        assert collector.drop_buffer() == 2
        windows = collector.pop_completed_windows(60.0)
        assert windows[0].is_empty
        # Indexing survives the crash: the next window is still window 2.
        collector.receive_message(message(timestamp=65.0, seq=2))
        (window,) = collector.pop_completed_windows(120.0)
        assert window.index == 2


class TestDeliveryBranches:
    def test_corruption_branch(self):
        link = RadioLink(loss_probability=0.0, corruption_probability=1.0)
        record = link.transmit(message())
        assert record.malformed is not None
        assert record.malformed.reason == "CRC failure"
        assert record.message is None
        assert not record.lost

    def test_loss_branch(self):
        link = RadioLink(loss_probability=1.0)
        record = link.transmit(message())
        assert record.lost
        assert record.message is None

    def test_collector_counts_all_outcomes(self):
        collector = CollectorNode()
        link_ok = RadioLink(loss_probability=0.0, corruption_probability=0.0)
        link_bad = RadioLink(loss_probability=0.0, corruption_probability=1.0)
        link_lossy = RadioLink(loss_probability=1.0)
        collector.receive(link_ok.transmit(message(seq=0)))
        collector.receive(link_bad.transmit(message(seq=1)))
        collector.receive(link_lossy.transmit(message(seq=2)))
        assert collector.stats.accepted == 1
        assert collector.stats.malformed == 1
        assert collector.stats.lost == 1
        assert collector.stats.attempted == 3


class TestCoreGuards:
    def test_clusterer_assign_rejects_non_finite(self):
        clusterer = OnlineStateClusterer(initial_vectors=[np.array([20.0, 75.0])])
        with pytest.raises(ValueError, match="non-finite"):
            clusterer.assign(np.array([np.nan, 75.0]))

    def test_clusterer_update_rejects_non_finite(self):
        clusterer = OnlineStateClusterer(initial_vectors=[np.array([20.0, 75.0])])
        with pytest.raises(ValueError, match="non-finite"):
            clusterer.update(np.array([[20.0, 75.0], [np.inf, 75.0]]))

    def test_clusterer_spawn_rejects_non_finite(self):
        clusterer = OnlineStateClusterer(initial_vectors=[np.array([20.0, 75.0])])
        with pytest.raises(ValueError, match="non-finite"):
            clusterer.maybe_spawn(np.array([np.nan, np.nan]))

    def test_identify_window_names_the_offending_sensor(self):
        clusterer = OnlineStateClusterer(initial_vectors=[np.array([20.0, 75.0])])
        per_sensor = {
            0: np.array([20.0, 75.0]),
            3: np.array([np.nan, 75.0]),
        }
        with pytest.raises(ValueError, match="sensor 3"):
            identify_window(
                clusterer, per_sensor, overall_mean=np.array([20.0, 75.0])
            )


def window_with_nan(index=1):
    """A window where sensor 2's reading is non-finite."""
    readings = {0: (20.0, 75.0), 1: (20.2, 74.8), 2: (np.nan, 75.0)}
    messages = tuple(
        message(sensor_id=sid, timestamp=(index - 1) * 60.0 + 1.0, attributes=attrs)
        for sid, attrs in sorted(readings.items())
    )
    return ObservationWindow(
        index=index,
        start_minutes=(index - 1) * 60.0,
        end_minutes=index * 60.0,
        messages=messages,
    )


class TestPipelineSanitizer:
    def test_non_finite_sensor_dropped_not_fatal(self):
        pipeline = DetectionPipeline(PipelineConfig())
        result = pipeline.process_window(window_with_nan())
        assert not result.skipped
        assert pipeline.n_non_finite_dropped == 1
        # The poisoned sensor never reached identification.
        assert 2 not in result.identification.sensor_states

    def test_overall_mean_excludes_non_finite_rows(self):
        pipeline = DetectionPipeline(PipelineConfig())
        pipeline.process_window(window_with_nan())
        for vector in pipeline.clusterer.states.vectors():
            assert np.all(np.isfinite(vector))

    def test_all_non_finite_window_is_skipped(self):
        pipeline = DetectionPipeline(PipelineConfig())
        readings = {0: (np.nan, 75.0), 1: (np.inf, 74.8)}
        messages = tuple(
            message(sensor_id=sid, attributes=attrs)
            for sid, attrs in sorted(readings.items())
        )
        window = ObservationWindow(
            index=1, start_minutes=0.0, end_minutes=60.0, messages=messages
        )
        result = pipeline.process_window(window)
        assert result.skipped
        assert pipeline.n_non_finite_dropped == 2
