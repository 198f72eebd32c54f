"""The pipeline's hot array kernels (DESIGN.md §14).

The grouped window-mean pass (:func:`repro.core.pipeline._batched_window_means`),
the window-derived certificate and the full-lane distance scan behind
:class:`repro.core.states.StateSet` call these functions directly.  Each
kernel documents the accumulation order the per-window reference path
relies on for bit-identical results.
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
