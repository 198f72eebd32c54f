"""Numba ``njit`` ports of the backend kernel surface.

Importing this module requires Numba; :func:`repro.backend.get_backend`
gates the import and falls back to :mod:`.numpy_backend` when it fails.

Bit-identity: every loop below accumulates in exactly the order the
NumPy reference does — ``np.bincount`` adds sequentially in input
order, and the einsum reductions sum the tiny attribute axis
sequentially — so each float accumulator sees the identical sequence
of IEEE-754 additions and the results match the NumPy kernels
bit-for-bit (pinned by ``repro parity --backend compiled``).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np
from numba import njit


@njit(cache=True)
def _grouped_accumulate(keys, weights, counts, sums):  # pragma: no cover
    for i in range(keys.shape[0]):
        key = keys[i]
        counts[key] += 1
        for column in range(weights.shape[1]):
            sums[key, column] += weights[i, column]


def grouped_sums(
    keys: np.ndarray,
    weights: np.ndarray,
    minlength: int,
    scratch: "Dict[str, object] | None" = None,
) -> "Tuple[np.ndarray, np.ndarray]":
    counts = np.zeros(minlength, dtype=np.int64)
    shape = (minlength, weights.shape[1])
    sums = None
    if scratch is not None:
        sums = scratch.get("sums")
        if sums is None or sums.shape != shape:
            sums = np.empty(shape)
            scratch["sums"] = sums
    if sums is None:
        sums = np.empty(shape)
    sums[:] = 0.0
    _grouped_accumulate(
        keys.astype(np.int64, copy=False),
        np.asarray(weights, dtype=np.float64),
        counts,
        sums,
    )
    return counts, sums


@njit(cache=True)
def _pairwise(points, matrix, out):  # pragma: no cover
    n, d = points.shape
    m = matrix.shape[0]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for column in range(d):
                delta = points[i, column] - matrix[j, column]
                acc += delta * delta
            out[i, j] = math.sqrt(acc)


def pairwise_distances(
    points: np.ndarray,
    matrix: np.ndarray,
    scratch: "Dict[str, object] | None" = None,
) -> np.ndarray:
    # The compiled kernel needs no difference-tensor scratch; the
    # caller-owned dict is accepted (and ignored) for signature parity.
    out = np.empty((points.shape[0], matrix.shape[0]))
    _pairwise(
        np.asarray(points, dtype=np.float64),
        np.asarray(matrix, dtype=np.float64),
        out,
    )
    return out


@njit(cache=True)
def _k_of_n_lockstep(buf, position, raws, count, active, k):  # pragma: no cover
    for i in range(raws.shape[0]):
        raw = raws[i]
        evicted = buf[i, position]
        delta = (1 if raw else 0) - (1 if evicted else 0)
        count[i] += delta
        buf[i, position] = raw
        active[i] = count[i] >= k


def k_of_n_lockstep(
    buf: np.ndarray,
    position: int,
    raws: np.ndarray,
    count: np.ndarray,
    active: np.ndarray,
    k: int,
) -> None:
    _k_of_n_lockstep(buf, position, raws, count, active, k)


@njit(cache=True)
def _sprt(llr, raws, active, log_up, log_down, upper, lower, new_llr, new_active):  # pragma: no cover
    for i in range(llr.shape[0]):
        value = llr[i] + (log_up if raws[i] else log_down)
        accept_h1 = value >= upper
        accept_h0 = value <= lower
        if accept_h1:
            new_active[i] = True
        elif accept_h0:
            new_active[i] = False
        else:
            new_active[i] = active[i]
        new_llr[i] = 0.0 if (accept_h1 or accept_h0) else value


def sprt_step(
    llr: np.ndarray,
    raws: np.ndarray,
    active: np.ndarray,
    log_up: float,
    log_down: float,
    upper: float,
    lower: float,
) -> "Tuple[np.ndarray, np.ndarray]":
    new_llr = np.empty(llr.shape[0])
    new_active = np.empty(llr.shape[0], dtype=np.bool_)
    _sprt(
        np.ascontiguousarray(llr),
        raws,
        np.ascontiguousarray(active),
        log_up,
        log_down,
        upper,
        lower,
        new_llr,
        new_active,
    )
    return new_llr, new_active


@njit(cache=True)
def _cusum(g, raws, active, drift, threshold, new_g, new_active):  # pragma: no cover
    for i in range(g.shape[0]):
        value = g[i] + (1.0 if raws[i] else 0.0) - drift
        # Mirrors np.maximum(0.0, value): -0.0 normalizes to +0.0 and
        # NaN propagates (NaN <= 0.0 is False).
        if value <= 0.0:
            value = 0.0
        new_g[i] = value
        if value > threshold:
            new_active[i] = True
        elif value == 0.0:
            new_active[i] = False
        else:
            new_active[i] = active[i]


def cusum_step(
    g: np.ndarray,
    raws: np.ndarray,
    active: np.ndarray,
    drift: float,
    threshold: float,
) -> "Tuple[np.ndarray, np.ndarray]":
    new_g = np.empty(g.shape[0])
    new_active = np.empty(g.shape[0], dtype=np.bool_)
    _cusum(
        np.ascontiguousarray(g),
        raws,
        np.ascontiguousarray(active),
        drift,
        threshold,
        new_g,
        new_active,
    )
    return new_g, new_active
