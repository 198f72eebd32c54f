"""Order statistics and host-speed normalisation shared by the benchmark."""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

#: Steps of each half of :func:`probe`.  Together about 50 ms on a quiet
#: host: long enough to average over the sub-second speed swings of a
#: shared VM, short next to a pass.
PROBE_SCALAR_STEPS = 10000
PROBE_ARRAY_STEPS = 180

#: Seconds one :func:`probe` takes on the reference host (a quiet 2-vCPU
#: x86-64 VM).  Host-normalised times are seconds on that host.
PROBE_REFERENCE_S = 0.05

_PROBE_VECTOR = np.linspace(0.0, 1.0, 16)
_PROBE_ARRAY = np.linspace(0.0, 1.0, 1 << 16)


def probe() -> float:
    """Wall seconds a fixed loop takes now: the host's current speed.

    The loop mixes what the program spends its time on: interpreted
    Python around small NumPy operations and dict stores (the
    per-window path), then whole-array NumPy passes over half a
    megabyte (generation and the fleet kernels).  A host slowdown hits
    the two halves unequally, and the program sits between them.  It
    calls nothing of the program, so a change to the program cannot
    move it.
    """
    start = time.perf_counter()
    total = 0.0
    store: Dict[int, float] = {}
    vector = _PROBE_VECTOR
    for i in range(PROBE_SCALAR_STEPS):
        scaled = vector * 1.0001 + 0.5
        total += float(scaled.sum())
        store[i & 63] = total
        vector = scaled if i & 1 else _PROBE_VECTOR
    array = _PROBE_ARRAY
    for step in range(PROBE_ARRAY_STEPS):
        roots = np.sqrt(array * 1.0001 + 0.5)
        array = np.sort(roots[::-1]) if step % 10 == 0 else roots
    return time.perf_counter() - start


def host_normalized(seconds: Sequence[float], probes: Sequence[float]) -> List[float]:
    """Each timed region in reference-host seconds.

    ``probes[i]`` and ``probes[i + 1]`` are the probes taken just before
    and just after region ``i``; the region is scaled by the reference
    probe time over their mean.  On a shared host whose speed drifts by
    tens of percent over minutes, this keeps the host's speed out of the
    number while any change to the program's own work stays in it.
    """
    if len(probes) != len(seconds) + 1:
        raise ValueError("need one probe before each region and one after the last")
    return [
        value * PROBE_REFERENCE_S / ((probes[i] + probes[i + 1]) / 2.0)
        for i, value in enumerate(seconds)
    ]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks.

    Same convention as ``numpy.percentile``'s default, so a latency p99
    read from a result file matches what a NumPy reader would compute.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles; the spread of one sample is 0.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, IQR, IQR share of the median, and sample count."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "n": len(values),
    }
