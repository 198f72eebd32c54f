"""Unit tests for repro.sensornet.collector (Eq. 1 windowing)."""

import numpy as np
import pytest

from repro.sensornet import (
    CollectorNode,
    DeliveryRecord,
    MalformedMessage,
    ObservationWindow,
    SensorMessage,
    windows_from_messages,
)
from repro.sensornet.collector import windows_from_arrays


def msg(sensor_id: int, t: float, attrs=(1.0, 2.0)) -> SensorMessage:
    return SensorMessage(sensor_id=sensor_id, timestamp=t, attributes=attrs)


class TestCollectorNode:
    def test_windows_partition_by_time(self):
        collector = CollectorNode(window_minutes=60.0)
        for t in (0.0, 30.0, 59.9, 60.0, 100.0):
            collector.receive_message(msg(0, t))
        windows = collector.pop_completed_windows(120.0)
        assert len(windows) == 2
        assert len(windows[0].messages) == 3
        assert len(windows[1].messages) == 2

    def test_windows_emitted_in_order_with_gaps(self):
        collector = CollectorNode(window_minutes=10.0)
        collector.receive_message(msg(0, 25.0))
        windows = collector.pop_completed_windows(30.0)
        assert [w.index for w in windows] == [1, 2, 3]
        assert windows[0].is_empty and windows[1].is_empty
        assert not windows[2].is_empty

    def test_incomplete_window_not_emitted(self):
        collector = CollectorNode(window_minutes=60.0)
        collector.receive_message(msg(0, 10.0))
        assert collector.pop_completed_windows(59.0) == []

    def test_flush_emits_partial_window(self):
        collector = CollectorNode(window_minutes=60.0)
        collector.receive_message(msg(0, 10.0))
        window = collector.flush()
        assert window is not None
        assert len(window.messages) == 1
        assert collector.flush() is None

    def test_stats_track_delivery_outcomes(self):
        collector = CollectorNode()
        collector.receive(DeliveryRecord(message=msg(0, 0.0)))
        collector.receive(DeliveryRecord(lost=True))
        collector.receive(
            DeliveryRecord(malformed=MalformedMessage(sensor_id=0, timestamp=0.0))
        )
        assert collector.stats.accepted == 1
        assert collector.stats.lost == 1
        assert collector.stats.malformed == 1
        assert collector.stats.attempted == 3
        assert np.isclose(collector.stats.acceptance_rate, 1.0 / 3.0)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            CollectorNode(window_minutes=0.0)

    @pytest.mark.parametrize("window_minutes", [float("nan"), float("inf")])
    def test_rejects_non_finite_window(self, window_minutes):
        with pytest.raises(ValueError, match="window_minutes must be positive"):
            CollectorNode(window_minutes=window_minutes)

    def test_windows_from_messages_rejects_non_finite_window(self):
        # The constructor check first: a collector built with a NaN
        # length would never see ``end > now`` and emit windows forever.
        with pytest.raises(ValueError, match="window_minutes must be positive"):
            CollectorNode(window_minutes=float("nan"))
        with pytest.raises(ValueError, match="window_minutes must be positive"):
            windows_from_messages([msg(0, 10.0)], float("nan"))

    def test_windows_from_arrays_rejects_non_finite_window(self):
        ts = np.array([0.0, 30.0, 90.0])
        ids = np.array([0, 1, 0])
        values = np.ones((3, 2))
        # NaN first: a windower without the check returns no windows
        # here, so the assertion fails before the ``inf`` call below,
        # whose window loop would otherwise never terminate.
        with pytest.raises(ValueError, match="window_minutes must be positive"):
            windows_from_arrays(ts, ids, values, float("nan"))
        with pytest.raises(ValueError, match="window_minutes must be positive"):
            windows_from_arrays(ts, ids, values, float("inf"))


class TestObservationWindow:
    def window(self) -> ObservationWindow:
        return ObservationWindow(
            index=1,
            start_minutes=0.0,
            end_minutes=60.0,
            messages=(
                msg(0, 1.0, (10.0, 90.0)),
                msg(0, 6.0, (12.0, 88.0)),
                msg(1, 2.0, (20.0, 70.0)),
            ),
        )

    def test_observations_matrix(self):
        window = self.window()
        assert window.observations.shape == (3, 2)
        assert window.sensor_ids == [0, 0, 1]

    def test_per_sensor_mean_averages_repeats(self):
        means = self.window().per_sensor_mean()
        assert np.allclose(means[0], [11.0, 89.0])
        assert np.allclose(means[1], [20.0, 70.0])

    def test_overall_mean_weights_by_delivered_readings(self):
        # Sensor 0 delivered two readings; it gets twice the weight.
        mean = self.window().overall_mean()
        assert np.allclose(mean, [(10 + 12 + 20) / 3.0, (90 + 88 + 70) / 3.0])

    def test_empty_window(self):
        window = ObservationWindow(
            index=1, start_minutes=0.0, end_minutes=60.0, messages=()
        )
        assert window.is_empty
        assert window.per_sensor_mean() == {}
        with pytest.raises(ValueError):
            window.overall_mean()


class TestWindowsFromMessages:
    def test_batch_windowing_covers_all_messages(self):
        messages = [msg(i % 3, float(t)) for i, t in enumerate(range(0, 300, 7))]
        windows = windows_from_messages(messages, window_minutes=60.0)
        total = sum(len(w.messages) for w in windows)
        assert total == len(messages)

    def test_batch_windowing_indices_consecutive(self):
        messages = [msg(0, 10.0), msg(0, 200.0)]
        windows = windows_from_messages(messages, window_minutes=60.0)
        assert [w.index for w in windows] == list(
            range(1, len(windows) + 1)
        )
