"""Columnar generation kernels against their scalar oracles, and output pins.

The link walk and the tick schedule are closed-form array kernels of
loops the object simulator runs one sample at a time; the loops live on
here as the references the kernels must equal bit for bit.  The pins
hash the generator's output bytes, so a change that moves the columnar
and object paths together (which the parity suite cannot see) still
fails unless ``GENERATOR_VERSION`` is bumped with it.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    CalibrationFault,
    DynamicCreationAttack,
    DynamicDeletionAttack,
    FaultInjector,
    StuckAtFault,
)
from repro.traces import GDITraceConfig, build_environment, generate_gdi_trace_columnar
from repro.traces.columnar import GENERATOR_VERSION, _iid_link_walk, tick_schedule


def scalar_link_walk(link_rng, n, loss_probability, corruption_probability):
    """The scalar link's decision walk: a second draw only on survival."""
    lost = np.zeros(n, dtype=bool)
    malformed = np.zeros(n, dtype=bool)
    if n == 0:
        return lost, malformed
    draws = link_rng.random(2 * n)
    ptr = 0
    for i in range(n):
        if draws[ptr] < loss_probability:
            lost[i] = True
            ptr += 1
            continue
        ptr += 1
        if draws[ptr] < corruption_probability:
            malformed[i] = True
        ptr += 1
    return lost, malformed


def scalar_tick_schedule(duration_minutes, period_minutes):
    """The simulator's run loop: ``minutes += period`` until the end."""
    ticks: List[float] = []
    minutes = 0.0
    while minutes < duration_minutes:
        ticks.append(minutes)
        minutes += period_minutes
    return np.asarray(ticks, dtype=float)


probability = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


class TestLinkWalk:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=200),
        loss=probability,
        corruption=probability,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=0, loss=0.5, corruption=0.5, seed=0)
    @example(n=50, loss=0.0, corruption=1.0, seed=1)
    @example(n=50, loss=1.0, corruption=1.0, seed=2)
    def test_matches_scalar_walk(self, n, loss, corruption, seed):
        expected = scalar_link_walk(np.random.default_rng(seed), n, loss, corruption)
        lost, malformed = _iid_link_walk(
            np.random.default_rng(seed), np.arange(n), loss, corruption
        )
        assert lost.dtype == malformed.dtype == np.bool_
        assert np.array_equal(lost, expected[0])
        assert np.array_equal(malformed, expected[1])


class TestTickSchedule:
    @pytest.mark.parametrize("period", [0.1, 1.0 / 3.0, 0.7, 5.0, 7.0, 1e-3, 2.9999999])
    @pytest.mark.parametrize("duration", [0.05, 5.0, 1440.0, 21 * 1440.0])
    def test_matches_accumulation_loop(self, duration, period):
        expected = scalar_tick_schedule(duration, period)
        got = tick_schedule(duration, period)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("duration, period", [(0.0, 5.0), (10.0, 0.0), (-1.0, 1.0)])
    def test_rejects_non_positive(self, duration, period):
        with pytest.raises(ValueError):
            tick_schedule(duration, period)


#: SHA-256 of ``delivered_arrays()`` plus the lost and malformed masks of
#: a 3-day, seed-2003 trace per plan.  Computed by the generator at
#: ``GENERATOR_VERSION = 1``.
PINNED_DIGESTS = {
    "clean": "eb6ac41edb1d219a218514f140a5de5e32bc19d84a0cf0a69592f035d2ca7501",
    "stuck_at": "f97d0a8c8fbd61340247ce4e273d19d64897f6813c7a9fa21826f270f0017141",
    "calibration": "ec88ca916403d110047202a653c0dbfe64cdc3f20e5ace1079bafde026cf59ad",
    "deletion": "b32c96572ea29832ba35859150b10fc5bb3f318a2c785b775f42a3da7a914bf4",
    "creation": "025b398f02a981ca00224badc35623cb7f0e25b29cf5bd81af083de0a7aea758",
}

PLANS = {
    "clean": None,
    "stuck_at": (StuckAtFault, [6]),
    "calibration": (CalibrationFault, [7]),
    "deletion": (DynamicDeletionAttack, [0, 4, 7]),
    "creation": (DynamicCreationAttack, [1, 5, 8]),
}


def output_digest(trace) -> str:
    digest = hashlib.sha256()
    timestamps, sensor_ids, values = trace.delivered_arrays()
    for array, dtype in (
        (timestamps, "<f8"),
        (sensor_ids, "<i8"),
        (values, "<f8"),
        (trace.lost, "|b1"),
        (trace.malformed, "|b1"),
    ):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PLANS))
def test_generator_output_bytes_are_pinned(name):
    config = GDITraceConfig(n_days=3, seed=2003)
    injector = None
    if PLANS[name] is not None:
        corruptor, sensors = PLANS[name]
        injector = FaultInjector(environment=build_environment(config))
        injector.add(corruptor(), sensors)
    trace = generate_gdi_trace_columnar(config, corruption=injector)
    assert output_digest(trace) == PINNED_DIGESTS[name], (
        f"generator output for {name!r} moved under GENERATOR_VERSION = "
        f"{GENERATOR_VERSION}: if the change is intended, bump "
        "GENERATOR_VERSION and these pins together so stale cache entries "
        "are not replayed"
    )
