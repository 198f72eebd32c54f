"""The pipeline's hot array kernels (DESIGN.md §14).

The grouped window-mean pass (:func:`repro.core.pipeline._batched_window_means`),
the full-lane distance scan behind :class:`repro.core.states.StateSet`,
and the :class:`repro.core.filtering.VectorFilterBank` update
recurrences call these functions directly.  Each kernel documents the
accumulation order the per-window reference path relies on for
bit-identical results.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def grouped_sums(
    keys: np.ndarray,
    weights: np.ndarray,
    minlength: int,
    scratch: "Dict[str, object] | None" = None,
) -> "Tuple[np.ndarray, np.ndarray]":
    """Per-key occurrence counts and per-column weighted sums.

    ``keys`` is ``(N,)`` int, ``weights`` is ``(N, d)`` float; returns
    ``(counts, sums)`` of shapes ``(minlength,)`` / ``(minlength, d)``.
    Accumulation order contract: each ``(key, column)`` accumulator
    receives its addends in input-row order (``np.bincount`` adds
    sequentially), so grouping per trace or per window yields the same
    float sums.

    ``scratch`` (optional, owner-private) recycles the ``sums`` buffer
    across same-shape calls.  Callers that let the result escape the
    call (e.g. grouped overall means stored in per-window stats) must
    pass ``scratch=None`` so they own a fresh array.
    """
    counts = np.bincount(keys, minlength=minlength)
    shape = (minlength, weights.shape[1])
    sums = None
    if scratch is not None:
        sums = scratch.get("sums")
        if sums is None or sums.shape != shape:
            sums = np.empty(shape)
            scratch["sums"] = sums
    if sums is None:
        sums = np.empty(shape)
    for column in range(weights.shape[1]):
        sums[:, column] = np.bincount(
            keys, weights=weights[:, column], minlength=minlength
        )
    return counts, sums


def pairwise_distances(
    points: np.ndarray,
    matrix: np.ndarray,
    scratch: "Dict[str, object] | None" = None,
) -> np.ndarray:
    """``(N, M)`` Euclidean distances from ``points`` to ``matrix`` rows.

    The ``(N, M, d)`` difference tensor and its squared-norm reduction
    are scratch: recycled across same-shape calls through the caller's
    private ``scratch`` dict (the steady fused loop hits one shape for
    whole stretches).  Only the returned distance matrix is freshly
    allocated — callers hold on to it across further queries.  The
    attribute axis ``d`` is tiny (1–3), so the einsum reduction is a
    sequential sum.
    """
    shape = (points.shape[0], matrix.shape[0], matrix.shape[1])
    buffers = scratch.get("pair") if scratch is not None else None
    if buffers is None or buffers[0].shape != shape:
        buffers = (np.empty(shape), np.empty(shape[:2]))
        if scratch is not None:
            scratch["pair"] = buffers
    diff, sq = buffers
    np.subtract(points[:, None, :], matrix[None, :, :], out=diff)
    np.einsum("nmd,nmd->nm", diff, diff, out=sq)
    return np.sqrt(sq)


def k_of_n_lockstep(
    buf: np.ndarray,
    position: int,
    raws: np.ndarray,
    count: np.ndarray,
    active: np.ndarray,
    k: int,
) -> None:
    """Advance all lockstep k-of-n rings one window, in place.

    ``buf``/``count``/``active`` are the live-slot views of the filter
    bank's ring buffers, counts, and active flags; every ring shares
    write ``position``.  Pure integer/bool arithmetic.
    """
    delta = raws.astype(np.int64)
    delta -= buf[:, position]
    count += delta
    buf[:, position] = raws
    np.greater_equal(count, k, out=active)


def sprt_step(
    llr: np.ndarray,
    raws: np.ndarray,
    active: np.ndarray,
    log_up: float,
    log_down: float,
    upper: float,
    lower: float,
) -> "Tuple[np.ndarray, np.ndarray]":
    """One SPRT update over gathered per-sensor statistics.

    Returns fresh ``(llr, active)`` arrays; the caller scatters them
    back.  Scalar precedence contract: ``>= upper`` wins when both
    thresholds trip, and either acceptance resets the ratio to zero.
    """
    llr = llr + np.where(raws, log_up, log_down)
    accept_h1 = llr >= upper
    accept_h0 = llr <= lower
    new_active = np.where(accept_h1, True, np.where(accept_h0, False, active))
    new_llr = np.where(accept_h1 | accept_h0, 0.0, llr)
    return new_llr, new_active


def cusum_step(
    g: np.ndarray,
    raws: np.ndarray,
    active: np.ndarray,
    drift: float,
    threshold: float,
) -> "Tuple[np.ndarray, np.ndarray]":
    """One CUSUM update over gathered per-sensor statistics.

    Returns fresh ``(g, active)``.  Contract: the score saturates at
    zero, alarms latch above ``threshold`` and clear only at zero.
    """
    new_g = np.maximum(0.0, g + raws.astype(float) - drift)
    new_active = np.where(
        new_g > threshold, True, np.where(new_g == 0.0, False, active)
    )
    return new_g, new_active
