"""Object vs columnar parity: the fast path must match the oracle bitwise.

The columnar generator (:mod:`repro.traces.columnar`) only earns its
speedup if it is *exactly* the object-path simulation — same RNG
streams, same float arithmetic, same quarantine decisions.  Every test
here asserts bit-for-bit equality (``==`` on floats, not ``allclose``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.faults import (
    ActivationSchedule,
    AdditiveFault,
    BenignAttack,
    CalibrationFault,
    DriftFault,
    DynamicChangeAttack,
    DynamicCreationAttack,
    DynamicDeletionAttack,
    FaultInjector,
    IntermittentFault,
    MixedAttack,
    PacketDropper,
    RandomNoiseFault,
    StuckAtFault,
)
from repro.traces import (
    GDITraceConfig,
    build_environment,
    generate_gdi_trace,
    generate_gdi_trace_columnar,
    window_trace,
    window_trace_columnar,
)


def assert_traces_identical(object_trace, columnar_trace) -> None:
    """Record-for-record bitwise equality, plus metadata."""
    converted = columnar_trace.to_trace()
    assert len(converted.records) == len(object_trace.records)
    for ours, oracle in zip(converted.records, object_trace.records):
        assert ours.sensor_id == oracle.sensor_id
        assert ours.timestamp == oracle.timestamp  # bitwise, no tolerance
        assert ours.attributes == oracle.attributes
    assert converted.attribute_names == object_trace.attribute_names
    assert converted.metadata == object_trace.metadata


class TestCleanTraceParity:
    def test_default_config_small(self):
        config = GDITraceConfig(n_days=2, seed=5)
        assert_traces_identical(
            generate_gdi_trace(config), generate_gdi_trace_columnar(config)
        )

    def test_alternate_knobs(self):
        # The link probabilities' extremes: the walk never (or always)
        # takes the second, corruption draw.
        for loss, corruption in [
            (0.3, 0.05),
            (0.0, 0.0),
            (0.0, 1.0),
            (1.0, 0.0),
            (1.0, 1.0),
        ]:
            config = GDITraceConfig(
                n_sensors=4,
                n_days=1,
                sample_period_minutes=7.0,
                noise_std=1.1,
                loss_probability=loss,
                corruption_probability=corruption,
                seed=99,
            )
            assert_traces_identical(
                generate_gdi_trace(config), generate_gdi_trace_columnar(config)
            )

    def test_delivered_arrays_match_messages(self):
        config = GDITraceConfig(n_days=1, seed=3)
        trace = generate_gdi_trace_columnar(config)
        timestamps, sensor_ids, values = trace.delivered_arrays()
        records = trace.to_trace().records
        assert timestamps.shape == (len(records),)
        assert values.shape == (len(records), trace.n_attributes)
        for row, record in enumerate(records):
            assert timestamps[row] == record.timestamp
            assert int(sensor_ids[row]) == record.sensor_id
            assert tuple(values[row]) == record.attributes


def _make_injector(environment, name: str) -> FaultInjector:
    """Fresh injector per path — corruptors carry private RNG state."""
    injector = FaultInjector(environment=environment)
    if name == "stuck":
        injector.add(StuckAtFault(), [6])
    elif name == "calibration":
        injector.add(CalibrationFault(), [7])
    elif name == "additive":
        injector.add(AdditiveFault(), [2])
    elif name == "random_noise":
        injector.add(RandomNoiseFault(), [1, 4])
    elif name == "drift":
        injector.add(DriftFault(ramp_minutes=12 * 60.0), [5])
    elif name == "dropper":
        injector.add(PacketDropper(), [3])
    elif name == "intermittent":
        injector.add(IntermittentFault(), [0])
    elif name == "creation":
        injector.add(DynamicCreationAttack(), [1, 5, 8])
    elif name == "deletion":
        injector.add(DynamicDeletionAttack(), [0, 4, 7])
    elif name == "change":
        injector.add(DynamicChangeAttack(), [2, 6, 9])
    elif name == "mixed":
        injector.add(MixedAttack(), [3, 5, 8])
    elif name == "benign":
        injector.add(BenignAttack(), [1, 2, 3])
    elif name == "scheduled":
        injector.add(
            StuckAtFault(),
            [6],
            ActivationSchedule(start_minutes=6 * 60.0, end_minutes=18 * 60.0),
        )
    elif name == "overlap":
        # First match wins on sensor 6; second entry still hits 7.
        injector.add(StuckAtFault(), [6])
        injector.add(CalibrationFault(), [6, 7])
    else:  # pragma: no cover - test bug
        raise AssertionError(f"unknown injector fixture {name}")
    return injector


CORRUPTION_NAMES = [
    "stuck",
    "calibration",
    "additive",
    "random_noise",
    "drift",
    "dropper",
    "intermittent",
    "creation",
    "deletion",
    "change",
    "mixed",
    "benign",
    "scheduled",
    "overlap",
]


class TestCorruptionParity:
    @pytest.mark.parametrize("name", CORRUPTION_NAMES)
    def test_injected_trace_and_event_log(self, name):
        config = GDITraceConfig(n_days=1, seed=17)
        environment = build_environment(config)
        injector_object = _make_injector(environment, name)
        injector_columnar = _make_injector(environment, name)

        object_trace = generate_gdi_trace(config, corruption=injector_object)
        columnar_trace = generate_gdi_trace_columnar(
            config, corruption=injector_columnar
        )
        assert_traces_identical(object_trace, columnar_trace)
        # Ground-truth logs must agree too: same events, same order.
        assert injector_columnar.events == injector_object.events


class TestPipelineParity:
    def test_digest_identical_across_data_paths(self):
        config = GDITraceConfig(n_days=2, seed=7)
        environment = build_environment(config)
        object_trace = generate_gdi_trace(
            config, corruption=_make_injector(environment, "stuck")
        )
        columnar_trace = generate_gdi_trace_columnar(
            config, corruption=_make_injector(environment, "stuck")
        )

        pipeline_config = PipelineConfig()

        object_pipeline = DetectionPipeline(pipeline_config)
        for window in window_trace(
            object_trace, pipeline_config.window_minutes
        ):
            object_pipeline._process_window_reference(window)

        trace_pipeline = DetectionPipeline(pipeline_config)
        for window in window_trace_columnar(
            object_trace, pipeline_config.window_minutes
        ):
            trace_pipeline.process_window(window)

        columnar_pipeline = DetectionPipeline(pipeline_config)
        for window in window_trace_columnar(
            columnar_trace, pipeline_config.window_minutes
        ):
            columnar_pipeline.process_window(window)

        assert object_pipeline.n_windows == columnar_pipeline.n_windows
        assert (
            object_pipeline.digest()
            == trace_pipeline.digest()
            == columnar_pipeline.digest()
        )


class TestEnvironmentBatching:
    def test_values_at_matches_scalar_calls(self):
        config = GDITraceConfig(n_days=2, seed=13)
        environment = build_environment(config)
        times = np.concatenate(
            [np.linspace(0.0, config.duration_minutes, 257), [0.0, 5.0]]
        )
        batched = environment.values_at(times)
        for k, minutes in enumerate(times):
            assert np.array_equal(batched[k], environment.value_at(minutes))


class TestCopyOnWriteGuard:
    def test_columnar_trace_arrays_are_frozen(self):
        trace = generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=2))
        for array in (
            trace.tick_times,
            trace.sensor_ids,
            trace.values,
            trace.delivered,
            trace.lost,
            trace.malformed,
            trace.duplicated,
        ):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    def test_window_views_are_frozen(self):
        trace = generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=2))
        windows = window_trace_columnar(trace, 60.0)
        assert windows, "expected at least one window"
        for window in windows:
            assert not window.observations.flags.writeable
            assert not window.sensor_id_array.flags.writeable
        with pytest.raises(ValueError):
            windows[0].observations[0, 0] = 1.0

    def test_frozen_views_share_storage(self):
        # The point of the guard: windows are views, not copies.
        trace = generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=2))
        timestamps, _, values = trace.delivered_arrays()
        windows = window_trace_columnar(trace, 60.0)
        non_empty = [w for w in windows if not w.is_empty]
        assert non_empty
        assert any(
            np.shares_memory(w.observations, values) for w in non_empty
        )
