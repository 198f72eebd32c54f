"""Unit tests for repro.core.alarms and repro.core.filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alarms import AlarmGenerator
from repro.core.clustering import OnlineStateClusterer
from repro.core.filtering import (
    AlarmFilter,
    CUSUMFilter,
    FilterBank,
    KOfNFilter,
    SPRTFilter,
    filter_from_state_dict,
)
from repro.core.identification import identify_window


def identification(sensor_states, correct):
    """Build a WindowIdentification-like via the real path."""
    clusterer = OnlineStateClusterer(
        initial_vectors=[np.array([0.0, 0.0]), np.array([20.0, 0.0])],
        alpha=0.1,
        spawn_threshold=8.0,
        merge_threshold=3.0,
    )
    per_sensor = {
        sid: np.array([0.0, 0.0]) if state == 0 else np.array([20.0, 0.0])
        for sid, state in sensor_states.items()
    }
    majority_vec = np.array([0.0, 0.0]) if correct == 0 else np.array([20.0, 0.0])
    return identify_window(clusterer, per_sensor, overall_mean=majority_vec)


class TestAlarmGenerator:
    def test_alarm_fires_on_disagreement(self):
        gen = AlarmGenerator()
        ident = identification({0: 0, 1: 0, 2: 1}, correct=0)
        alarms = gen.process(1, ident)
        assert len(alarms) == 1
        assert alarms[0].sensor_id == 2
        assert alarms[0].sensor_state == 1
        assert alarms[0].correct_state == 0

    def test_history_covers_all_reporting_sensors(self):
        gen = AlarmGenerator()
        gen.process(1, identification({0: 0, 1: 1}, correct=0))
        assert gen.alarm_series(0) == [False]
        assert gen.alarm_series(1) == [True]

    def test_alarm_rate(self):
        gen = AlarmGenerator()
        gen.process(1, identification({0: 0, 1: 1}, correct=0))
        gen.process(2, identification({0: 0, 1: 0}, correct=0))
        assert gen.alarm_rate(1) == pytest.approx(0.5)
        assert gen.alarm_rate(0) == 0.0

    def test_unknown_sensor_rate_is_zero(self):
        assert AlarmGenerator().alarm_rate(99) == 0.0

    def test_sensors_seen(self):
        gen = AlarmGenerator()
        gen.process(1, identification({3: 0, 7: 0}, correct=0))
        assert gen.sensors_seen() == {3, 7}


class TestKOfNFilter:
    def test_fires_after_k_raw_alarms(self):
        filt = KOfNFilter(k=3, n=5)
        assert not filt.update(True)
        assert not filt.update(True)
        assert filt.update(True)

    def test_window_slides(self):
        filt = KOfNFilter(k=2, n=3)
        filt.update(True)
        filt.update(True)
        assert filt.active
        filt.update(False)
        assert filt.active  # still 2 of last 3
        filt.update(False)
        assert not filt.active  # only 1 of last 3

    def test_reset(self):
        filt = KOfNFilter(k=1, n=2)
        filt.update(True)
        filt.reset()
        assert not filt.active

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KOfNFilter(k=0, n=3)
        with pytest.raises(ValueError):
            KOfNFilter(k=4, n=3)


class TestSPRTFilter:
    def test_consecutive_alarms_accept_h1(self):
        filt = SPRTFilter(p0=0.02, p1=0.65)
        fired = [filt.update(True) for _ in range(10)]
        assert any(fired)

    def test_quiet_stream_stays_clear(self):
        filt = SPRTFilter()
        assert not any(filt.update(False) for _ in range(100))

    def test_clears_after_quiet_period(self):
        filt = SPRTFilter()
        for _ in range(10):
            filt.update(True)
        assert filt.active
        for _ in range(200):
            filt.update(False)
        assert not filt.active

    def test_thresholds_ordering(self):
        filt = SPRTFilter()
        assert filt.lower_threshold < 0 < filt.upper_threshold

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SPRTFilter(p0=0.5, p1=0.2)
        with pytest.raises(ValueError):
            SPRTFilter(alpha=0.0)


class TestCUSUMFilter:
    def test_sustained_alarms_trip_threshold(self):
        filt = CUSUMFilter(drift=0.25, threshold=2.0)
        fired = [filt.update(True) for _ in range(5)]
        assert fired[-1]

    def test_sparse_alarms_do_not_trip(self):
        filt = CUSUMFilter(drift=0.25, threshold=2.0)
        pattern = [True] + [False] * 9
        assert not any(filt.update(x) for x in pattern * 5)

    def test_clears_when_statistic_returns_to_zero(self):
        filt = CUSUMFilter(drift=0.25, threshold=2.0)
        for _ in range(10):
            filt.update(True)
        assert filt.active
        for _ in range(50):
            filt.update(False)
        assert not filt.active

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CUSUMFilter(drift=0.0)
        with pytest.raises(ValueError):
            CUSUMFilter(threshold=0.0)


class TestFilterBank:
    def test_lazily_creates_per_sensor_filters(self):
        bank = FilterBank(factory=lambda: KOfNFilter(k=1, n=1))
        bank.update(1, {0: True, 1: False})
        assert bank.is_active(0)
        assert not bank.is_active(1)
        assert not bank.is_active(99)

    def test_transitions_reported_on_change_only(self):
        bank = FilterBank(factory=lambda: KOfNFilter(k=1, n=1))
        first = bank.update(1, {0: True})
        second = bank.update(2, {0: True})
        third = bank.update(3, {0: False})
        assert [t.raised for t in first] == [True]
        assert second == []
        assert [t.raised for t in third] == [False]

    def test_active_sensors_sorted(self):
        bank = FilterBank(factory=lambda: KOfNFilter(k=1, n=1))
        bank.update(1, {5: True, 2: True, 7: False})
        assert bank.active_sensors() == [2, 5]


#: A raw-alarm history: a random prefix, then a run of one raw, which
#: drives the filters into their settled states often.
histories = st.tuples(
    st.lists(st.booleans(), max_size=10), st.booleans(), st.integers(0, 8)
).map(lambda parts: parts[0] + [parts[1]] * parts[2])


@st.composite
def k_of_n_filters(draw):
    n = draw(st.integers(1, 5))
    filt = KOfNFilter(k=draw(st.integers(1, n)), n=n)
    if draw(st.booleans()):  # a restored state, flag possibly stale
        payload = filt.state_dict()
        payload["window"] = draw(st.lists(st.booleans(), max_size=n))
        payload["active"] = draw(st.booleans())
        filt = filter_from_state_dict(payload)
    return filt


@st.composite
def sprt_filters(draw):
    p0 = draw(st.floats(0.01, 0.4))
    filt = SPRTFilter(
        p0=p0,
        p1=draw(st.floats(p0 + 0.05, 0.95)),
        alpha=draw(st.floats(0.01, 0.2)),
        beta=draw(st.floats(0.01, 0.2)),
    )
    if draw(st.booleans()):
        filt._llr = draw(st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0))
        filt._active = draw(st.booleans())
    return filt


@st.composite
def cusum_filters(draw):
    filt = CUSUMFilter(
        drift=draw(st.floats(0.05, 0.95)), threshold=draw(st.floats(0.5, 4.0))
    )
    if draw(st.booleans()):
        filt._g = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 5.0))
        filt._active = draw(st.booleans())
    return filt


class TestSettled:
    """``settled(raw)`` promises that ``update(raw)`` changes no state:
    the certified lane of the detection pipeline skips settled filters."""

    @pytest.mark.parametrize(
        "filters", (k_of_n_filters(), sprt_filters(), cusum_filters()),
        ids=("k_of_n", "sprt", "cusum"),
    )
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_settled_update_keeps_state(self, filters, data):
        filt = data.draw(filters)
        for raw in data.draw(histories):
            filt.update(raw)
        for raw in (False, True):
            if filt.settled(raw):
                state, active = repr(filt.state_dict()), filt.active
                assert filt.update(raw) == active
                assert filt.active == active
                assert repr(filt.state_dict()) == state

    def test_settled_states(self):
        k_of_n = KOfNFilter(k=2, n=3)
        for _ in range(2):
            k_of_n.update(True)
        assert not k_of_n.settled(True)  # the ring is not full yet
        k_of_n.update(True)
        assert k_of_n.settled(True) and not k_of_n.settled(False)
        stale = filter_from_state_dict(
            dict(k_of_n.state_dict(), window=[False] * 3, active=True)
        )
        assert not stale.settled(False)  # the next update clears the flag
        cusum = CUSUMFilter()
        assert cusum.settled(False) and not cusum.settled(True)
        cusum._g = -0.0  # the next update makes it +0.0
        assert not cusum.settled(False)
        sprt = SPRTFilter()
        for _ in range(20):
            sprt.update(False)
            assert not sprt.settled(False) and not sprt.settled(True)

    def test_overridden_update_is_never_settled(self):
        class Latch(KOfNFilter):
            def update(self, raw: bool) -> bool:
                self._active = self._active or raw
                return self._active

        class Base(AlarmFilter):
            pass

        latch = Latch(k=1, n=1)
        latch._window.append(False)
        assert not latch.settled(False)
        assert not Base().settled(False)
