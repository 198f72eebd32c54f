"""Columnar fast path for scenario/trace generation.

The object-path generator (:func:`repro.traces.gdi.generate_gdi_trace`)
walks the simulator tick by tick, building a :class:`SensorMessage` per
reading.  That is the *oracle*: simple, obviously faithful to the
deployment model, and kept intact.  This module implements the same
computation over dense arrays — one ``(T, S, d)`` value grid plus
parallel id/time/drop masks — and is pinned to the oracle **bit for
bit** by the parity suite (``tests/test_columnar_parity.py``).

Why bit-exact equivalence is possible at all:

* environment sampling is vectorised such that scalar calls delegate to
  the batched kernels (see :mod:`repro.sensornet.environment`);
* ``Generator.normal(size=(T, d))`` consumes the same RNG stream as
  ``T`` sequential size-``d`` draws, so per-mote noise reproduces
  value-for-value;
* per-link loss/corruption draws are *conditionally* consumed (the
  corruption draw only happens when the packet was not lost), so the
  link stage pre-draws a bounded block of doubles from the private link
  RNG and locates the scalar walk's decisions in it in closed form —
  over-drawing a private Generator is unobservable;
* fault/attack kernels visit reports in message order (tick-major, then
  mote order), which :meth:`FaultInjector.apply_columnar` guarantees.

``GENERATOR_VERSION`` is the cache-invalidation knob: any change to the
generator's *outputs* (not just its speed) must bump it, which changes
every content hash in :mod:`repro.traces.cache` and forces regeneration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .gdi import GDITraceConfig, build_environment
from .schema import Trace, TraceRecord

#: Bump on any behavioural change to trace generation (columnar or
#: object path).  Part of every scenario-cache content hash.
GENERATOR_VERSION = 1

def tick_schedule(duration_minutes: float, period_minutes: float) -> np.ndarray:
    """Sampling times of the simulator's run loop, bit-exactly.

    The simulator accumulates ``minutes += period`` rather than
    multiplying, so for pathological float periods ``k * period`` could
    differ in the last ulp.  ``np.add.accumulate`` is a sequential left
    fold, so it reproduces that accumulation bit for bit; the schedule
    is its prefix of values below ``duration_minutes``.
    """
    if duration_minutes <= 0:
        raise ValueError("duration_minutes must be positive")
    if period_minutes <= 0:
        raise ValueError("period_minutes must be positive")
    n_steps = int(np.ceil(duration_minutes / period_minutes)) + 2
    while True:
        steps = np.full(n_steps, float(period_minutes))
        steps[0] = 0.0
        minutes = np.add.accumulate(steps)
        if minutes[-1] >= duration_minutes:
            break
        # Accumulated rounding fell short of the estimate: fold further.
        n_steps *= 2
    return minutes[: np.searchsorted(minutes, duration_minutes, side="left")]


@dataclass(eq=False)
class ColumnarTrace:
    """A generated deployment month as dense arrays.

    Attributes
    ----------
    tick_times:
        ``(T,)`` sampling times in minutes.
    sensor_ids:
        ``(S,)`` mote id of each column.
    values:
        ``(T, S, d)`` reports as they left the (possibly corrupted)
        motes.  Cells that were lost/suppressed still hold the values
        that *would* have been sent — consult :attr:`delivered`.
    delivered:
        ``(T, S)`` True where the collector accepted the report.
    lost / malformed:
        ``(T, S)`` link-level packet fate masks (drops and CRC
        failures).
    duplicated:
        ``(T, S)`` True where the link also delivered a second copy
        (always False on the loss-only GDI profile).
    attribute_names / metadata:
        Same provenance the object-path :class:`Trace` carries.

    All arrays are frozen read-only after construction: windows and
    pipeline stages hold *views* into them, and the copy-on-write guard
    tests rely on accidental mutation raising.
    """

    tick_times: np.ndarray
    sensor_ids: np.ndarray
    values: np.ndarray
    delivered: np.ndarray
    lost: np.ndarray
    malformed: np.ndarray
    duplicated: np.ndarray
    attribute_names: Tuple[str, ...] = ("temperature", "humidity")
    metadata: Dict[str, float] = field(default_factory=dict)
    _flat: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.tick_times = np.asarray(self.tick_times, dtype=float)
        self.sensor_ids = np.asarray(self.sensor_ids, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        for name in ("delivered", "lost", "malformed", "duplicated"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=bool))
        expected = (len(self.tick_times), len(self.sensor_ids))
        if self.values.shape[:2] != expected or self.values.ndim != 3:
            raise ValueError("values must have shape (T, S, d)")
        for name in ("delivered", "lost", "malformed", "duplicated"):
            if getattr(self, name).shape != expected:
                raise ValueError(f"{name} must have shape (T, S)")
        for array in (
            self.tick_times,
            self.sensor_ids,
            self.values,
            self.delivered,
            self.lost,
            self.malformed,
            self.duplicated,
        ):
            array.flags.writeable = False

    @property
    def n_ticks(self) -> int:
        """Number of sampling rounds T."""
        return self.values.shape[0]

    @property
    def n_sensors(self) -> int:
        """Number of motes S."""
        return self.values.shape[1]

    @property
    def n_attributes(self) -> int:
        """Attribute dimensionality d."""
        return self.values.shape[2]

    def __len__(self) -> int:
        return int(self.delivered.sum())

    def delivered_arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Flat ``(timestamps, sensor_ids, values)`` of accepted reports.

        Rows come out in canonical trace order — sorted by
        ``(timestamp, sensor_id)`` — which for an ascending-id grid is
        simply row-major order over the delivered mask.  The value
        array is a fresh contiguous ``(K, d)`` block, frozen read-only
        so windows can alias it safely.
        """
        if self._flat is None:
            tick_idx, sensor_idx = np.nonzero(self.delivered)
            timestamps = self.tick_times[tick_idx]
            sensor_ids = self.sensor_ids[sensor_idx]
            values = self.values[tick_idx, sensor_idx]
            if not np.all(np.diff(self.sensor_ids) > 0):
                order = np.lexsort((sensor_ids, timestamps))
                timestamps = timestamps[order]
                sensor_ids = sensor_ids[order]
                values = values[order]
            for array in (timestamps, sensor_ids, values):
                array.flags.writeable = False
            self._flat = (timestamps, sensor_ids, values)
        return self._flat

    def to_trace(self) -> Trace:
        """Materialise the object-path :class:`Trace` (oracle format)."""
        timestamps, sensor_ids, values = self.delivered_arrays()
        records = [
            TraceRecord(
                sensor_id=int(sensor_ids[row]),
                timestamp=float(timestamps[row]),
                attributes=tuple(float(x) for x in values[row]),
            )
            for row in range(len(timestamps))
        ]
        trace = Trace(records=records, attribute_names=self.attribute_names)
        trace.metadata.update(self.metadata)
        return trace


def _iid_link_walk(
    link_rng: np.random.Generator,
    attempt_ticks: np.ndarray,
    loss_probability: float,
    corruption_probability: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """One i.i.d. link's decisions over pre-drawn doubles, in closed form.

    Returns boolean ``(lost, malformed)`` arrays aligned with
    ``attempt_ticks``.  The scalar link consumes one double for the
    loss decision and a second one only when the packet survived, so
    the draw after a loss (``draw < loss_probability``) — whether that
    draw decided a loss or a corruption — always opens a decision, and
    inside a run of surviving draws decisions and corruption draws
    alternate.  Draw ``j`` is therefore a decision iff the run of
    surviving draws ending at ``j - 1`` has even length; the first
    ``n`` decisions are the walk.  Decision ``i`` sits at draw
    ``<= 2 i``, so ``2 n`` doubles always suffice.
    """
    n = attempt_ticks.size
    if n == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    draws = link_rng.random(2 * n)
    survived = draws >= loss_probability
    position = np.arange(2 * n)
    # Last non-surviving draw at or before each position (-1: none).
    last_lost = np.maximum.accumulate(np.where(survived, -1, position))
    run = np.zeros(2 * n, dtype=np.int64)
    run[1:] = position[:-1] - last_lost[:-1]
    slot = np.flatnonzero(run % 2 == 0)[:n]
    lost = ~survived[slot]
    malformed = survived[slot] & (draws[slot + 1] < corruption_probability)
    return lost, malformed


def generate_gdi_trace_columnar(
    config: Optional[GDITraceConfig] = None,
    corruption: Optional["FaultInjector"] = None,
) -> ColumnarTrace:
    """Columnar equivalent of :func:`repro.traces.gdi.generate_gdi_trace`.

    Same inputs, same seeds, bit-identical outputs (the parity suite
    compares the materialised :class:`Trace` record by record) — but
    environment sampling, mote noise, and fault application run as
    array kernels instead of one Python object per reading.

    Parameters
    ----------
    config:
        Generator knobs; defaults reproduce the paper's setup.
    corruption:
        Optional :class:`repro.faults.injector.FaultInjector`.  Unlike
        the object path (which accepts any callable stage), the
        columnar path needs the injector's vectorised entry point; pass
        arbitrary stages to the object generator instead.
    """
    config = config or GDITraceConfig()
    environment = build_environment(config)
    tick_times = tick_schedule(
        config.duration_minutes, config.sample_period_minutes
    )
    n_ticks = tick_times.size
    n_sensors = config.n_sensors
    sensor_ids = np.arange(n_sensors, dtype=np.int64)

    truth = environment.values_at(tick_times)
    n_attributes = truth.shape[1]
    values = np.empty((n_ticks, n_sensors, n_attributes))
    for s in range(n_sensors):
        mote_rng = np.random.default_rng((config.seed, s))
        values[:, s, :] = truth + mote_rng.normal(
            0.0, config.noise_std, size=(n_ticks, n_attributes)
        )

    if corruption is not None:
        delivered = corruption.apply_columnar(tick_times, sensor_ids, values)
    else:
        delivered = np.ones((n_ticks, n_sensors), dtype=bool)

    lost = np.zeros((n_ticks, n_sensors), dtype=bool)
    malformed = np.zeros((n_ticks, n_sensors), dtype=bool)
    for s in range(n_sensors):
        link_rng = np.random.default_rng(int(config.seed) * 100_003 + s)
        attempts = np.nonzero(delivered[:, s])[0]
        link_lost, link_malformed = _iid_link_walk(
            link_rng,
            attempts,
            config.loss_probability,
            config.corruption_probability,
        )
        lost[attempts, s] = link_lost
        malformed[attempts, s] = link_malformed
    delivered &= ~lost & ~malformed

    # Hardened-ingest parity: the collector quarantines non-finite
    # readings before they reach a window (or the trace).
    finite = np.isfinite(values).all(axis=2)
    delivered &= finite

    metadata = {
        "n_sensors": float(config.n_sensors),
        "n_days": float(config.n_days),
        "seed": float(config.seed),
        "accepted": float(delivered.sum()),
        "malformed": float(malformed.sum()),
        "lost": float(lost.sum()),
    }
    return ColumnarTrace(
        tick_times=tick_times,
        sensor_ids=sensor_ids,
        values=values,
        delivered=delivered,
        lost=lost,
        malformed=malformed,
        duplicated=np.zeros((n_ticks, n_sensors), dtype=bool),
        attribute_names=environment.attribute_names,
        metadata=metadata,
    )
