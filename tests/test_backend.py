"""Kernel-backend registry: selection, fallback, and bit-identity.

The compiled tier is strictly optional — ``backend="compiled"`` must
work (numpy flavor, one warning) on an interpreter without numba, and
whichever flavor actually runs must be bit-identical to the reference
kernels: digests, checkpoints, and per-window results never depend on
the backend choice.
"""

import warnings

import numpy as np
import pytest

import repro.backend as backend_module
from repro import DetectionPipeline, PipelineConfig
from repro.backend import (
    BackendFallbackWarning,
    UnknownBackendError,
    get_backend,
    numba_available,
)
from repro.resilience.checkpoint import restore, snapshot
from repro.traces import GDITraceConfig, generate_gdi_trace_columnar


def _fresh_compiled_resolution(monkeypatch):
    """Reset the registry's memoization so 'compiled' resolves anew."""
    monkeypatch.setattr(backend_module, "_FALLBACK_WARNED", False)
    monkeypatch.delitem(backend_module._CACHE, "compiled", raising=False)


class TestRegistry:
    def test_unknown_backend_is_a_structured_error(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("bogus")
        assert excinfo.value.backend == "bogus"
        assert excinfo.value.available == ("numpy", "compiled")
        assert "bogus" in str(excinfo.value)

    def test_unknown_backend_rejected_at_config_time(self):
        with pytest.raises(UnknownBackendError):
            PipelineConfig(backend="bogus")

    def test_numpy_backend_resolves(self):
        backend = get_backend("numpy")
        assert backend.name == "numpy"
        assert backend.flavor == "numpy"

    @pytest.mark.skipif(
        numba_available(), reason="fallback only happens without numba"
    )
    def test_compiled_without_numba_warns_once(self, monkeypatch):
        _fresh_compiled_resolution(monkeypatch)
        with pytest.warns(BackendFallbackWarning):
            first = get_backend("compiled")
        assert first.name == "compiled"
        assert first.flavor == "numpy"
        # Memoized second resolution: same object, no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("compiled") is first

    @pytest.mark.skipif(
        not numba_available(), reason="needs a real numba install"
    )
    def test_compiled_with_numba_is_silent(self, monkeypatch):
        _fresh_compiled_resolution(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = get_backend("compiled")
        assert backend.name == "compiled"
        assert backend.flavor == "numba"


def _run(config: PipelineConfig, trace) -> DetectionPipeline:
    pipeline = DetectionPipeline(config)
    pipeline.process_trace_fast(trace)
    return pipeline


@pytest.fixture(scope="module")
def short_trace():
    return generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=13))


class TestBitIdentity:
    def test_digest_identical_across_backends(self, short_trace):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendFallbackWarning)
            compiled = _run(PipelineConfig(backend="compiled"), short_trace)
        reference = _run(PipelineConfig(backend="numpy"), short_trace)
        assert reference.digest() == compiled.digest()

    def test_digest_metadata_records_backend(self, short_trace):
        reference = _run(PipelineConfig(backend="numpy"), short_trace)
        meta = reference.digest_metadata()
        assert meta["digest"] == reference.digest()
        assert meta["backend"] == "numpy"
        assert meta["backend_flavor"] == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendFallbackWarning)
            compiled = _run(PipelineConfig(backend="compiled"), short_trace)
        meta = compiled.digest_metadata()
        assert meta["backend"] == "compiled"
        assert meta["backend_flavor"] in ("numpy", "numba")
        # The digest hash payload itself must not mention the backend.
        assert meta["digest"] == reference.digest()

    def test_checkpoint_restores_bit_identical_across_backends(
        self, short_trace
    ):
        """A checkpoint written under one backend resumes under the other."""
        from repro.traces.windows import window_trace_columnar

        config = PipelineConfig()
        windows = window_trace_columnar(short_trace, config.window_minutes)
        half = len(windows) // 2

        writer = DetectionPipeline(config)
        for window in windows[:half]:
            writer.process_window(window)
        payload = snapshot(writer)

        finish = {}
        for backend in ("numpy", "compiled"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BackendFallbackWarning)
                resumed = restore(
                    dict(payload), config=PipelineConfig(backend=backend)
                )
            for window in windows[half:]:
                resumed.process_window(window)
            finish[backend] = resumed.digest()
        assert finish["numpy"] == finish["compiled"]


class TestScratchIsolation:
    def test_interleaved_pipelines_do_not_share_scratch(self):
        """Two engines advanced window-by-window own distinct scratch.

        Reusable kernel scratch is per-instance; interleaving two
        pipelines must produce exactly the digests of two solo runs.
        """
        from repro.traces.windows import window_trace_columnar

        config = PipelineConfig()
        traces = [
            generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=s))
            for s in (5, 6)
        ]
        window_lists = [
            window_trace_columnar(trace, config.window_minutes)
            for trace in traces
        ]

        solo = []
        for windows in window_lists:
            pipeline = DetectionPipeline(PipelineConfig())
            for window in windows:
                pipeline.process_windows_fast([window])
            solo.append(pipeline.digest())

        first = DetectionPipeline(PipelineConfig())
        second = DetectionPipeline(PipelineConfig())
        assert first._kernel_scratch is not second._kernel_scratch
        for a, b in zip(*window_lists):
            first.process_windows_fast([a])
            second.process_windows_fast([b])
        assert [first.digest(), second.digest()] == solo

    def test_stateset_scratch_is_per_instance(self):
        from repro.core.states import StateSet

        first = StateSet([np.array([0.0, 0.0]), np.array([5.0, 5.0])])
        second = StateSet([np.array([1.0, 1.0])])
        assert first._distance_scratch is not second._distance_scratch
        points = np.array([[0.5, 0.5], [4.0, 4.0]])
        d1, _ = first.distances_to(points)
        d2, _ = second.distances_to(points)
        # Shapes differ (2 vs 1 states): per-instance scratch must have
        # kept each call's buffers apart.
        assert d1.shape == (2, 2) and d2.shape == (2, 1)
        d1_again, _ = first.distances_to(points)
        assert np.array_equal(d1, d1_again)
