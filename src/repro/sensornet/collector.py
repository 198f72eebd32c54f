"""Collector node: receives reports and groups them into time windows.

Implements the paper's Eq. 1 windowing: observations are partitioned into
sets ``O_i = { p | <t, p> in O  and  w*(i-1) <= t <= w*i }`` where ``w``
is the window duration.  The collector also keeps delivery statistics
(lost / malformed / accepted), which the experiments report.

The ingest path is *hardened* against degraded infrastructure: packets
that arrive duplicated (radio retransmissions), late (delayed past their
window's emission or clock-skewed into the past), or carrying non-finite
attribute values are quarantined — counted per category in
:class:`DeliveryStats` and kept out of the observation windows — so the
detection pipeline never sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .messages import DeliveryRecord, SensorMessage


@dataclass(frozen=True)
class ObservationWindow:
    """One windowed observation set ``O_i``.

    Attributes
    ----------
    index:
        The window index ``i`` (1-based to match the paper's Eq. 1).
    start_minutes / end_minutes:
        Half-open time span covered, ``[w*(i-1), w*i)``.
    messages:
        The well-formed messages that arrived in the span.
    """

    index: int
    start_minutes: float
    end_minutes: float
    messages: tuple
    #: Attribute dimensionality, used to shape the observation matrix of
    #: *empty* windows consistently as ``(0, n_attributes)``.  Callers
    #: that cannot know the width (hand-built empty fixtures) may leave
    #: the default; non-empty windows infer the width from the messages.
    n_attributes: int = 0

    @cached_property
    def observations(self) -> np.ndarray:
        """``(N, n_attributes)`` matrix of the attribute vectors.

        Empty windows yield shape ``(0, n_attributes)`` — not ``(0, 0)``
        — so downstream column-wise code (means, vstack with neighbour
        windows) works uniformly across gaps.

        Cached on first access (the window is immutable): the pipeline's
        per-window pass reads the matrix several times and must not pay
        a fresh ``vstack`` each time.  Treat the result as read-only.
        """
        if not self.messages:
            return np.zeros((0, self.n_attributes))
        return np.vstack([m.vector for m in self.messages])

    @property
    def sensor_ids(self) -> List[int]:
        """Sensor id of each row of :attr:`observations`."""
        return [m.sensor_id for m in self.messages]

    @property
    def is_empty(self) -> bool:
        """True when no parseable report arrived in the window."""
        return not self.messages

    def overall_mean(self) -> np.ndarray:
        """Mean over *all* raw readings in the window (Eq. 2's input).

        Note this weights sensors by how many packets they delivered —
        exactly what the paper's Eq. 2 does by averaging observations
        rather than sensors.  Degraded motes that drop packets therefore
        pull the observable mean less, which is why the paper's B^CO
        stays near-orthogonal under single-sensor faults (§4.1).
        """
        if not self.messages:
            raise ValueError("window is empty")
        return self.observations.mean(axis=0)

    def per_sensor_mean(self) -> Dict[int, np.ndarray]:
        """Average the (possibly multiple) reports of each sensor.

        The paper's per-window procedure treats each sensor as one
        observation source; with a 1-hour window and 5-minute sampling a
        sensor contributes up to 12 raw readings, which we reduce to
        their mean (Θ is assumed approximately constant within w).
        """
        sums: Dict[int, np.ndarray] = {}
        counts: Dict[int, int] = {}
        for message in self.messages:
            vec = message.vector
            if message.sensor_id in sums:
                sums[message.sensor_id] = sums[message.sensor_id] + vec
                counts[message.sensor_id] += 1
            else:
                sums[message.sensor_id] = vec.copy()
                counts[message.sensor_id] = 1
        return {
            sensor_id: sums[sensor_id] / counts[sensor_id] for sensor_id in sums
        }


@dataclass(frozen=True, eq=False)
class ArrayWindow:
    """An :class:`ObservationWindow` backed by columnar array *views*.

    Produced by the batched windowers (:func:`windows_from_arrays`, the
    columnar trace path): ``observations`` is a read-only slice of the
    trace's contiguous value array — no per-reading message objects, no
    ``vstack`` copy.  Duck-type compatible with the subset of the
    :class:`ObservationWindow` API the detection pipeline consumes
    (``index``, ``observations``, ``per_sensor_mean``, ``overall_mean``,
    ``sensor_ids``, ``is_empty``), and numerically bit-identical to it:
    ``per_sensor_mean`` accumulates with ``np.bincount``, whose
    sequential index-order adds reproduce the message loop exactly.

    ``observations`` is held as a row-major float64 matrix (other
    layouts are copied once, at construction), so every ``axis=0``
    reduce over it — :meth:`overall_mean` here, the Eq. 2 mean in the
    fused stats kernels — adds each column sequentially and they agree
    bit for bit; a column-contiguous matrix would take pairwise sums.
    """

    index: int
    start_minutes: float
    end_minutes: float
    #: ``(N, n_attributes)`` read-only view into the trace storage.
    observations: np.ndarray
    #: ``(N,)`` sensor id of each row (read-only view).
    sensor_id_array: np.ndarray
    n_attributes: int = 0

    def __post_init__(self) -> None:
        obs = self.observations
        if obs.dtype != np.float64 or not obs.flags.c_contiguous:
            object.__setattr__(
                self, "observations", np.ascontiguousarray(obs, dtype=np.float64)
            )

    @property
    def sensor_ids(self) -> List[int]:
        """Sensor id of each row of :attr:`observations`."""
        return [int(s) for s in self.sensor_id_array]

    @property
    def is_empty(self) -> bool:
        """True when no parseable report arrived in the window."""
        return self.observations.shape[0] == 0

    def overall_mean(self) -> np.ndarray:
        """Mean over all raw readings (see ObservationWindow.overall_mean)."""
        if self.is_empty:
            raise ValueError("window is empty")
        return self.observations.mean(axis=0)

    def per_sensor_mean(self) -> Dict[int, np.ndarray]:
        """Per-sensor reading means, keyed in first-occurrence order.

        Dict order matters: the pipeline's alarm/filter bookkeeping
        follows it, so the columnar path must reproduce the object
        path's insertion order (first appearance of each sensor in the
        window) — not sorted order.
        """
        obs = self.observations
        ids = self.sensor_id_array
        if obs.shape[0] == 0:
            return {}
        unique_sorted, first_idx, codes = np.unique(
            ids, return_index=True, return_inverse=True
        )
        n_unique = len(unique_sorted)
        counts = np.bincount(codes, minlength=n_unique)
        sums = np.empty((n_unique, obs.shape[1]))
        for column in range(obs.shape[1]):
            sums[:, column] = np.bincount(
                codes, weights=obs[:, column], minlength=n_unique
            )
        means = sums / counts[:, None]
        order = np.argsort(first_idx, kind="stable")
        return {int(unique_sorted[i]): means[i] for i in order}


@dataclass
class DeliveryStats:
    """Running counts of what the collector received.

    ``accepted``/``malformed``/``lost`` reproduce the paper's delivery
    bookkeeping; the remaining categories count *quarantined* packets —
    ones that arrived parseable but were rejected by the hardened ingest
    path (duplicates, late/out-of-order arrivals, non-finite readings).
    """

    accepted: int = 0
    malformed: int = 0
    lost: int = 0
    duplicate: int = 0
    late: int = 0
    non_finite: int = 0

    @property
    def quarantined(self) -> int:
        """Parseable packets rejected by the hardened ingest path."""
        return self.duplicate + self.late + self.non_finite

    @property
    def attempted(self) -> int:
        """Total transmissions the motes attempted."""
        return self.accepted + self.malformed + self.lost + self.quarantined

    @property
    def acceptance_rate(self) -> float:
        """Fraction of attempted packets that were usable."""
        if self.attempted == 0:
            return 0.0
        return self.accepted / self.attempted

    def as_dict(self) -> Dict[str, int]:
        """Per-category counts, for reports and chaos-campaign summaries."""
        return {
            "accepted": self.accepted,
            "malformed": self.malformed,
            "lost": self.lost,
            "duplicate": self.duplicate,
            "late": self.late,
            "non_finite": self.non_finite,
        }


@dataclass
class CollectorNode:
    """Buffers incoming reports and emits completed observation windows.

    Parameters
    ----------
    window_minutes:
        Window duration ``w`` in minutes (the paper uses 12 samples at a
        5-minute period = 60 minutes).
    """

    window_minutes: float = 60.0
    stats: DeliveryStats = field(default_factory=DeliveryStats)
    #: When False, the duplicate/late/non-finite quarantine is bypassed
    #: (pure paper-faithful Eq. 1 behaviour).
    harden_ingest: bool = True
    _buffer: List[SensorMessage] = field(default_factory=list, repr=False)
    _next_window_index: int = field(default=1, repr=False)
    _seen_keys: Dict[int, Set[Tuple[float, int]]] = field(
        default_factory=dict, repr=False
    )
    _n_attributes: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        # NaN fails every comparison and inf never closes a window, so
        # both are rejected alongside non-positive lengths.
        if not (math.isfinite(self.window_minutes) and self.window_minutes > 0):
            raise ValueError("window_minutes must be positive")

    def _quarantine_reason(self, message: SensorMessage) -> Optional[str]:
        """Why ``message`` must not enter a window (None = accept)."""
        if not all(math.isfinite(x) for x in message.attributes):
            return "non_finite"
        if message.timestamp < self.window_minutes * (self._next_window_index - 1):
            # Its window was already emitted (delayed delivery or a
            # clock skewed into the past); admitting it would silently
            # corrupt nothing — it would be dropped later — but counting
            # it here makes the degradation observable.
            return "late"
        key = (message.timestamp, message.sequence_number)
        if key in self._seen_keys.get(message.sensor_id, ()):
            return "duplicate"
        return None

    def receive(self, record: DeliveryRecord) -> None:
        """Account for one delivery attempt."""
        if record.lost:
            self.stats.lost += 1
            return
        if record.malformed is not None:
            self.stats.malformed += 1
            return
        assert record.message is not None
        message = record.message
        if self.harden_ingest:
            reason = self._quarantine_reason(message)
            if reason is not None:
                setattr(self.stats, reason, getattr(self.stats, reason) + 1)
                return
            self._seen_keys.setdefault(message.sensor_id, set()).add(
                (message.timestamp, message.sequence_number)
            )
        self.stats.accepted += 1
        self._n_attributes = message.n_attributes
        self._buffer.append(message)

    def receive_message(self, message: SensorMessage) -> None:
        """Accept a message directly (bypassing the radio model)."""
        self.receive(DeliveryRecord(message=message))

    def _window_bounds(self, index: int) -> "tuple[float, float]":
        return (self.window_minutes * (index - 1), self.window_minutes * index)

    def pop_completed_windows(self, now_minutes: float) -> List[ObservationWindow]:
        """Emit every window that has fully elapsed as of ``now_minutes``.

        Windows are emitted in order, including empty ones (the pipeline
        must see gaps to keep window indices aligned with time).
        """
        completed: List[ObservationWindow] = []
        while True:
            start, end = self._window_bounds(self._next_window_index)
            if end > now_minutes:
                break
            in_window = [m for m in self._buffer if start <= m.timestamp < end]
            self._buffer = [m for m in self._buffer if m.timestamp >= end]
            completed.append(
                ObservationWindow(
                    index=self._next_window_index,
                    start_minutes=start,
                    end_minutes=end,
                    messages=tuple(in_window),
                    n_attributes=self._n_attributes,
                )
            )
            self._next_window_index += 1
        if completed:
            # Keys older than the emission horizon can never be accepted
            # again (the late guard fires first), so the dedup memory
            # stays bounded by one window of traffic per sensor.
            horizon = self.window_minutes * (self._next_window_index - 1)
            for sensor_id, keys in self._seen_keys.items():
                self._seen_keys[sensor_id] = {
                    key for key in keys if key[0] >= horizon
                }
        return completed

    def flush(self) -> Optional[ObservationWindow]:
        """Emit whatever remains in the buffer as a final partial window."""
        if not self._buffer:
            return None
        start, end = self._window_bounds(self._next_window_index)
        window = ObservationWindow(
            index=self._next_window_index,
            start_minutes=start,
            end_minutes=end,
            messages=tuple(self._buffer),
            n_attributes=self._n_attributes,
        )
        self._buffer = []
        self._next_window_index += 1
        return window

    def drop_buffer(self) -> int:
        """Discard all buffered (not yet windowed) messages; returns count.

        Models a collector crash: reports that arrived after the last
        emitted window die with the process.  Window indexing is
        preserved so a restarted collector keeps emitting aligned
        windows.
        """
        dropped = len(self._buffer)
        self._buffer = []
        return dropped


def windows_from_messages(
    messages: Iterable[SensorMessage], window_minutes: float
) -> List[ObservationWindow]:
    """Partition a complete message list into Eq. 1 windows (batch mode).

    Convenience for trace-driven experiments that already hold the whole
    month of data in memory.
    """
    collector = CollectorNode(window_minutes=window_minutes)
    last_time = 0.0
    for message in messages:
        collector.receive_message(message)
        last_time = max(last_time, message.timestamp)
    windows = collector.pop_completed_windows(last_time + window_minutes)
    return windows


#: Canonical (0, 0) observation matrix for windows whose width the
#: collector never learned (no report accepted yet).
_EMPTY_OBSERVATIONS = np.zeros((0, 0))
_EMPTY_OBSERVATIONS.flags.writeable = False


def windows_from_arrays(
    timestamps: np.ndarray,
    sensor_ids: np.ndarray,
    values: np.ndarray,
    window_minutes: float,
) -> List[ArrayWindow]:
    """Columnar :func:`windows_from_messages`: flat arrays in, views out.

    Inputs are parallel per-report arrays sorted by ``(timestamp,
    sensor_id)`` — the canonical trace order.  Each emitted
    :class:`ArrayWindow` holds *views* into one contiguous value block
    (no per-window copies); the block is frozen read-only, so the views
    are safe to share across windows and pipeline stages.

    Replays the batch collector's semantics exactly: non-finite rows
    are quarantined, rows before t=0 are late (the batch path receives
    everything before the single pop, so the late horizon is 0), and
    duplicate quarantine never fires (``Trace.to_messages`` assigns
    unique per-sensor sequence numbers).  The window count comes from
    the collector's own float comparisons, and every window shares the
    trace-wide attribute width — bit-identical matrices, means, and
    bounds, pinned by the parity suite.
    """
    if not (math.isfinite(window_minutes) and window_minutes > 0):
        raise ValueError("window_minutes must be positive")
    timestamps = np.asarray(timestamps, dtype=float)
    sensor_ids = np.asarray(sensor_ids)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or not (
        len(timestamps) == len(values) == len(sensor_ids)
    ):
        raise ValueError("need parallel (K,), (K,), (K, d) arrays")
    # The batch collector tracks last_time over *every* message, even
    # quarantined ones — take it before filtering.
    last_time = max(0.0, float(timestamps.max())) if len(timestamps) else 0.0
    keep = np.isfinite(values).all(axis=1) & (timestamps >= 0.0)
    if not keep.all():
        timestamps = timestamps[keep]
        sensor_ids = sensor_ids[keep]
        values = values[keep]
    values = np.ascontiguousarray(values)
    values.flags.writeable = False
    sensor_ids = np.ascontiguousarray(sensor_ids)
    sensor_ids.flags.writeable = False

    n_rows = len(timestamps)
    n_attributes = values.shape[1] if n_rows else 0
    now = last_time + window_minutes
    n_windows = 0
    while window_minutes * (n_windows + 1) <= now:
        n_windows += 1
    boundaries = [window_minutes * i for i in range(n_windows + 1)]
    edges = np.searchsorted(timestamps, np.asarray(boundaries), side="left")

    windows: List[ArrayWindow] = []
    for i in range(1, n_windows + 1):
        lo, hi = int(edges[i - 1]), int(edges[i])
        observations = (
            values[lo:hi] if (hi > lo or n_attributes) else _EMPTY_OBSERVATIONS
        )
        windows.append(
            ArrayWindow(
                index=i,
                start_minutes=float(boundaries[i - 1]),
                end_minutes=float(boundaries[i]),
                observations=observations,
                sensor_id_array=sensor_ids[lo:hi],
                n_attributes=n_attributes,
            )
        )
    return windows
