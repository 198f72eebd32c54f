"""Unit tests for repro.config (Table 1 configuration)."""

import pytest

from repro import PipelineConfig
from repro.core.filtering import CUSUMFilter, KOfNFilter, SPRTFilter


class TestTable1Defaults:
    def test_paper_values(self):
        config = PipelineConfig()
        assert config.n_sensors == 10
        assert config.n_initial_states == 6
        assert config.window_samples == 12
        assert config.alpha == 0.10
        assert config.beta == 0.90
        assert config.gamma == 0.90

    def test_window_minutes_is_one_hour(self):
        assert PipelineConfig().window_minutes == 60.0

    def test_table1_rows_cover_all_six_parameters(self):
        rows = PipelineConfig().table1_rows()
        symbols = [row[0] for row in rows]
        assert symbols == ["K", "M", "w", "alpha", "beta", "gamma"]

    def test_as_dict_is_numeric(self):
        for value in PipelineConfig().as_dict().values():
            float(value)


class TestValidation:
    def test_rejects_bad_learning_factors(self):
        for name in ("alpha", "beta", "gamma"):
            with pytest.raises(ValueError):
                PipelineConfig(**{name: 0.0})
            with pytest.raises(ValueError):
                PipelineConfig(**{name: 1.0})

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_sensors=0)
        with pytest.raises(ValueError):
            PipelineConfig(window_samples=0)
        with pytest.raises(ValueError):
            PipelineConfig(sample_period_minutes=0.0)

    def test_rejects_non_finite_window_length(self):
        # An infinite window never closes (run_pipeline would hang); a
        # NaN one yields no windows and a silent clean verdict.
        for name in ("window_samples", "sample_period_minutes"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{name} must be positive"):
                    PipelineConfig(**{name: value})

    @pytest.mark.parametrize(
        "knobs, message",
        [
            (dict(merge_threshold=-1.0), "thresholds must be positive"),
            (dict(spawn_threshold=float("nan")), "thresholds must be positive"),
            (dict(merge_threshold=float("inf")), "thresholds must be positive"),
            (
                dict(spawn_threshold=4.0, merge_threshold=4.0),
                "merge_threshold must be below spawn_threshold",
            ),
            (dict(max_states=0), "max_states must be at least 2"),
            (dict(max_states=1), "max_states must be at least 2"),
            (dict(filter_k=6, filter_n=5), r"need 1 <= k <= n"),
            (dict(filter_k=0), r"need 1 <= k <= n"),
            (dict(filter_n=0), r"need 1 <= k <= n"),
        ],
    )
    def test_rejects_knobs_the_first_window_would_reject(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**knobs)

    def test_rejects_unknown_filter_kind(self):
        with pytest.raises(ValueError):
            PipelineConfig(filter_kind="median")


class TestFilterFactory:
    def test_k_of_n(self):
        factory = PipelineConfig(filter_kind="k_of_n", filter_k=2, filter_n=7)
        filt = factory.filter_factory()()
        assert isinstance(filt, KOfNFilter)
        assert (filt.k, filt.n) == (2, 7)

    def test_sprt(self):
        factory = PipelineConfig(filter_kind="sprt", sprt_p1=0.7)
        filt = factory.filter_factory()()
        assert isinstance(filt, SPRTFilter)
        assert filt.p1 == 0.7

    def test_cusum(self):
        factory = PipelineConfig(filter_kind="cusum", cusum_threshold=3.0)
        filt = factory.filter_factory()()
        assert isinstance(filt, CUSUMFilter)
        assert filt.threshold == 3.0

    def test_factory_builds_independent_instances(self):
        factory = PipelineConfig().filter_factory()
        a, b = factory(), factory()
        a.update(True)
        assert not b.active
