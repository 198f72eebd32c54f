"""Unit tests for repro.traces (schema, GDI generator, loader, windows)."""

import numpy as np
import pytest

from repro.sensornet import SensorMessage
from repro.traces import (
    GDITraceConfig,
    Trace,
    TraceRecord,
    generate_gdi_trace,
    generate_gdi_trace_columnar,
    load_trace,
    non_empty_windows,
    save_trace,
    trace_from_messages,
    window_trace,
    window_trace_by_samples,
)


class TestTraceRecord:
    def test_message_roundtrip(self):
        record = TraceRecord(sensor_id=2, timestamp=15.0, attributes=(20.0, 70.0))
        message = record.to_message(sequence_number=3)
        assert message.sensor_id == 2
        assert message.sequence_number == 3
        assert TraceRecord.from_message(message) == record


class TestTrace:
    def build(self) -> Trace:
        records = [
            TraceRecord(sensor_id=1, timestamp=10.0, attributes=(1.0, 2.0)),
            TraceRecord(sensor_id=0, timestamp=5.0, attributes=(3.0, 4.0)),
            TraceRecord(sensor_id=0, timestamp=1500.0, attributes=(5.0, 6.0)),
        ]
        return Trace(records=records)

    def test_records_sorted_by_time(self):
        trace = self.build()
        times = [r.timestamp for r in trace.records]
        assert times == sorted(times)

    def test_sensor_ids_and_duration(self):
        trace = self.build()
        assert trace.sensor_ids == [0, 1]
        assert trace.duration_minutes == 1500.0

    def test_between_is_half_open(self):
        trace = self.build()
        subset = trace.between(5.0, 10.0)
        assert len(subset) == 1
        assert subset.records[0].sensor_id == 0

    def test_day_slicing(self):
        trace = self.build()
        day0 = trace.day(0)
        day1 = trace.day(1)
        assert len(day0) == 2
        assert len(day1) == 1

    def test_for_sensor(self):
        assert len(self.build().for_sensor(0)) == 2

    def test_to_messages_has_per_sensor_sequence_numbers(self):
        messages = self.build().to_messages()
        sensor0 = [m for m in messages if m.sensor_id == 0]
        assert [m.sequence_number for m in sensor0] == [0, 1]

    def test_attribute_series(self):
        times, values = self.build().attribute_series(0, 1)
        assert np.allclose(times, [5.0, 1500.0])
        assert np.allclose(values, [4.0, 6.0])

    def test_attribute_series_rejects_bad_index(self):
        with pytest.raises(ValueError):
            self.build().attribute_series(0, 5)


class TestGDIGenerator:
    @pytest.fixture(scope="class")
    def trace(self) -> Trace:
        return generate_gdi_trace(GDITraceConfig(n_days=3, seed=42))

    def test_all_sensors_present(self, trace):
        assert trace.sensor_ids == list(range(10))

    def test_loss_reduces_record_count(self, trace):
        ideal = 10 * 3 * 288  # sensors * days * samples-per-day
        assert len(trace) < ideal
        assert len(trace) > 0.7 * ideal

    def test_metadata_accounts_for_all_packets(self, trace):
        meta = trace.metadata
        total = meta["accepted"] + meta["malformed"] + meta["lost"]
        assert total == 10 * 3 * 288
        assert meta["accepted"] == len(trace)

    def test_values_physically_plausible(self, trace):
        matrix = np.vstack([r.vector for r in trace.records])
        assert matrix[:, 0].min() > -5 and matrix[:, 0].max() < 45
        assert matrix[:, 1].min() >= -2 and matrix[:, 1].max() <= 102

    def test_deterministic_given_seed(self):
        a = generate_gdi_trace(GDITraceConfig(n_days=1, seed=5))
        b = generate_gdi_trace(GDITraceConfig(n_days=1, seed=5))
        assert len(a) == len(b)
        assert np.allclose(a.records[100].vector, b.records[100].vector)

    def test_corruption_stage_applied(self):
        stage = lambda m: m.with_attributes((0.0, 0.0)) if m.sensor_id == 3 else m
        trace = generate_gdi_trace(GDITraceConfig(n_days=1, seed=5), corruption=stage)
        sensor3 = trace.for_sensor(3)
        assert sensor3
        assert all(r.attributes == (0.0, 0.0) for r in sensor3)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            GDITraceConfig(n_days=0)
        with pytest.raises(ValueError):
            GDITraceConfig(n_sensors=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # NaN noise delivered no reading at all: a silent clean run.
            ("noise_std", float("nan")),
            ("noise_std", float("inf")),
            ("noise_std", -1.0),
            ("sample_period_minutes", float("nan")),
            # inf generated one reading per mote for the whole trace.
            ("sample_period_minutes", float("inf")),
            ("seed", -1),
            ("seed", 1.5),
            ("n_sensors", 10.0),
            ("n_days", 2.0),
        ],
    )
    def test_both_generators_reject_bad_config(self, field, value):
        for generate in (generate_gdi_trace, generate_gdi_trace_columnar):
            with pytest.raises(ValueError, match=f"{field} must be"):
                generate(GDITraceConfig(**{"n_days": 1, field: value}))

    def test_accepts_numpy_integers_and_zero_noise(self):
        config = GDITraceConfig(
            n_sensors=np.int64(3), n_days=np.int32(1), seed=np.int64(0),
            noise_std=0.0,
        )
        assert len(generate_gdi_trace_columnar(config).to_trace()) > 0

    @pytest.mark.parametrize("name", ["loss_probability", "corruption_probability"])
    @pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
    def test_both_generators_reject_bad_link_probability(self, name, value):
        for generate in (generate_gdi_trace, generate_gdi_trace_columnar):
            with pytest.raises(ValueError, match=rf"{name} must be in \[0, 1\]"):
                generate(GDITraceConfig(n_days=1, **{name: value}))


class TestLoader:
    def test_roundtrip(self, tmp_path):
        trace = generate_gdi_trace(GDITraceConfig(n_days=1, seed=3))
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        report = load_trace(path)
        assert report.n_malformed == 0
        assert len(report.trace) == len(trace)
        assert report.trace.attribute_names == trace.attribute_names
        assert np.allclose(
            report.trace.records[10].vector, trace.records[10].vector, atol=1e-5
        )

    def test_malformed_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sensor_id,timestamp,temperature,humidity\n"
            "0,1.0,20.0,80.0\n"
            "not,a,valid,row\n"
            "1,2.0,21.0\n"
            "-3,2.0,21.0,70.0\n"
            "2,3.0,22.0,75.0\n"
        )
        report = load_trace(path)
        assert report.n_rows == 5
        assert report.n_malformed == 3
        assert len(report.trace) == 2
        assert report.malformed_rate == pytest.approx(0.6)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            load_trace(path)


class TestWindowing:
    def test_window_trace_by_samples_matches_minutes(self):
        trace = generate_gdi_trace(GDITraceConfig(n_days=1, seed=3))
        by_samples = window_trace_by_samples(trace, 12, 5.0)
        by_minutes = window_trace(trace, 60.0)
        assert len(by_samples) == len(by_minutes)
        assert len(by_samples) == 24

    def test_non_empty_windows_filters_gaps(self):
        messages = [
            SensorMessage(sensor_id=0, timestamp=10.0, attributes=(1.0,)),
            SensorMessage(sensor_id=0, timestamp=200.0, attributes=(1.0,)),
        ]
        windows = window_trace(trace_from_messages(messages, ("x",)), 60.0)
        kept = non_empty_windows(windows)
        assert len(kept) == 2
        assert all(not w.is_empty for w in kept)

    def test_rejects_bad_parameters(self):
        trace = Trace(records=[])
        with pytest.raises(ValueError):
            window_trace(trace, 0.0)
        with pytest.raises(ValueError):
            window_trace_by_samples(trace, 0)
