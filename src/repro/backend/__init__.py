"""Kernel backend registry (DESIGN.md §14).

The hot kernels of the pipeline — the grouped window-mean pass
(:func:`repro.core.pipeline._batched_window_means`), the full-lane
distance scan behind :class:`repro.core.states.StateSet`, and the
:class:`repro.core.filtering.VectorFilterBank` update recurrences —
are routed through a :class:`KernelBackend` selected at pipeline
construction from ``PipelineConfig.backend``:

* ``"numpy"`` — the reference implementations (always available).
* ``"compiled"`` — Numba ``njit`` ports of the same kernels.  When
  Numba is not importable the registry falls back to the NumPy
  implementations with a single :class:`BackendFallbackWarning` per
  process, so the flag is always importable and tests never
  hard-depend on the compiler.

Every compiled kernel accumulates in exactly the order its NumPy
counterpart does (``np.bincount`` adds sequentially in input order;
``np.einsum`` over the small trailing attribute axis reduces
sequentially), so results — and therefore pipeline digests — are
bit-identical across backends.  ``repro parity --backend compiled``
pins this.

This package must stay importable with nothing but NumPy present and
must not import ``repro.core`` (the core modules import it).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

#: Supported values of ``PipelineConfig.backend``.
BACKEND_NAMES: Tuple[str, ...] = ("numpy", "compiled")


class UnknownBackendError(ValueError):
    """Structured error for an unrecognized backend name.

    Carries the offending name (:attr:`backend`) and the supported
    names (:attr:`available`) so callers can render actionable
    messages without parsing the string.
    """

    def __init__(self, backend: object):
        self.backend = backend
        self.available = BACKEND_NAMES
        super().__init__(
            f"unknown backend {backend!r}; available backends: "
            f"{', '.join(BACKEND_NAMES)}"
        )


class BackendFallbackWarning(UserWarning):
    """``backend="compiled"`` was requested but Numba is unavailable."""


@dataclass(frozen=True)
class KernelBackend:
    """One resolved set of kernel implementations.

    ``name`` is the requested registry name (``"numpy"`` or
    ``"compiled"``); ``flavor`` is what actually executes (``"numpy"``
    or ``"numba"`` — they differ exactly when the compiled tier fell
    back).  The kernel attributes share one calling convention with
    the NumPy reference implementations in :mod:`.numpy_backend`.
    """

    name: str
    flavor: str
    grouped_sums: Callable
    pairwise_distances: Callable
    k_of_n_lockstep: Callable
    sprt_step: Callable
    cusum_step: Callable


def numba_available() -> bool:
    """True when ``import numba`` succeeds in this interpreter."""
    try:  # pragma: no cover - exercised only where numba is installed
        import numba  # noqa: F401
    except Exception:
        return False
    return True  # pragma: no cover


_CACHE: Dict[str, KernelBackend] = {}
_FALLBACK_WARNED = False


def _numpy_backend(name: str) -> KernelBackend:
    from . import numpy_backend

    return KernelBackend(
        name=name,
        flavor="numpy",
        grouped_sums=numpy_backend.grouped_sums,
        pairwise_distances=numpy_backend.pairwise_distances,
        k_of_n_lockstep=numpy_backend.k_of_n_lockstep,
        sprt_step=numpy_backend.sprt_step,
        cusum_step=numpy_backend.cusum_step,
    )


def get_backend(name: str = "numpy") -> KernelBackend:
    """Resolve a backend name to a :class:`KernelBackend`.

    Raises :class:`UnknownBackendError` for names outside
    :data:`BACKEND_NAMES`.  ``"compiled"`` without an importable Numba
    resolves to the NumPy implementations (``flavor == "numpy"``) and
    emits one :class:`BackendFallbackWarning` per process.
    """
    if name not in BACKEND_NAMES:
        raise UnknownBackendError(name)
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    if name == "numpy":
        backend = _numpy_backend("numpy")
    else:
        try:  # pragma: no cover - numba absent in the default test env
            from . import numba_backend

            backend = KernelBackend(
                name="compiled",
                flavor="numba",
                grouped_sums=numba_backend.grouped_sums,
                pairwise_distances=numba_backend.pairwise_distances,
                k_of_n_lockstep=numba_backend.k_of_n_lockstep,
                sprt_step=numba_backend.sprt_step,
                cusum_step=numba_backend.cusum_step,
            )
        except ImportError:
            global _FALLBACK_WARNED
            if not _FALLBACK_WARNED:
                _FALLBACK_WARNED = True
                warnings.warn(
                    "backend='compiled' requested but Numba is not "
                    "installed; falling back to the bit-identical NumPy "
                    "kernels",
                    BackendFallbackWarning,
                    stacklevel=2,
                )
            backend = _numpy_backend("compiled")
    _CACHE[name] = backend
    return backend
