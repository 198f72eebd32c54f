"""Applying corruptors to the live message stream.

The :class:`FaultInjector` is the glue between :mod:`repro.faults` and
the simulator: it is a valid
:data:`~repro.sensornet.simulator.CorruptionStage`, holds the environment
so adversaries can see Θ(t), dispatches per-sensor corruptors according
to their activation schedules, and keeps a ground-truth log of every
rewritten report (read by the tests; the evaluation metrics score
against the planted injections instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..sensornet.environment import EnvironmentModel
from ..sensornet.messages import SensorMessage
from .base import ActivationSchedule, Corruptor


@dataclass
class Injection:
    """One corruptor bound to a set of sensors and a schedule."""

    corruptor: Corruptor
    sensor_ids: Set[int]
    schedule: ActivationSchedule = field(default_factory=ActivationSchedule)

    def __post_init__(self) -> None:
        self.sensor_ids = set(self.sensor_ids)
        if not self.sensor_ids:
            raise ValueError("an injection needs at least one sensor")

    def applies_to(self, sensor_id: int, minutes: float) -> bool:
        """True when this injection corrupts ``sensor_id`` at ``minutes``."""
        return sensor_id in self.sensor_ids and self.schedule.active_at(minutes)


@dataclass(frozen=True)
class CorruptionEvent:
    """Ground-truth log entry: one report was rewritten."""

    sensor_id: int
    timestamp: float
    kind: str
    malicious: bool


#: One injection's rewritten cells in one :meth:`FaultInjector.apply_columnar`
#: call: tick indices, mote indices, kind and malice.
_EventBlock = Tuple[np.ndarray, np.ndarray, str, bool]


@dataclass
class FaultInjector:
    """Applies scheduled corruptors to the message stream.

    Parameters
    ----------
    environment:
        The ground-truth model; adversarial corruptors receive Θ(t).
    injections:
        The active corruption plan.  When several injections cover the
        same sensor at the same time, the first in the list wins —
        deterministic and easy to reason about in campaign specs.
    """

    environment: EnvironmentModel
    injections: List[Injection] = field(default_factory=list)
    _events: List[CorruptionEvent] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: Per :meth:`apply_columnar` call not yet logged: its tick times,
    #: sensor ids and event blocks; :attr:`events` materialises them.
    _pending: List[Tuple[np.ndarray, np.ndarray, List[_EventBlock]]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def events(self) -> List[CorruptionEvent]:
        """The ground-truth log, in the order the scalar stream appends."""
        self._flush_events()
        return self._events

    def _flush_events(self) -> None:
        """Log pending columnar event blocks in global message order."""
        for tick_times, sensor_ids, blocks in self._pending:
            tick_idx = np.concatenate([block[0] for block in blocks])
            sensor_idx = np.concatenate([block[1] for block in blocks])
            block_idx = np.repeat(
                np.arange(len(blocks)), [block[0].size for block in blocks]
            )
            # Tick-major, then mote order: the scalar log's order.  Each
            # cell is claimed by one injection, so there are no ties.
            order = np.lexsort((sensor_idx, tick_idx))
            self._events.extend(
                CorruptionEvent(
                    sensor_id=sensor_id,
                    timestamp=timestamp,
                    kind=blocks[block][2],
                    malicious=blocks[block][3],
                )
                for timestamp, sensor_id, block in zip(
                    tick_times[tick_idx[order]].tolist(),
                    sensor_ids[sensor_idx[order]].tolist(),
                    block_idx[order].tolist(),
                )
            )
        self._pending.clear()

    def add(
        self,
        corruptor: Corruptor,
        sensor_ids: Sequence[int],
        schedule: Optional[ActivationSchedule] = None,
    ) -> Injection:
        """Register a corruptor for some sensors; returns the injection."""
        injection = Injection(
            corruptor=corruptor,
            sensor_ids=set(sensor_ids),
            schedule=schedule or ActivationSchedule(),
        )
        self.injections.append(injection)
        return injection

    def corrupted_sensor_ids(self) -> Set[int]:
        """All sensors that any injection ever touches."""
        ids: Set[int] = set()
        for injection in self.injections:
            ids |= injection.sensor_ids
        return ids

    def ground_truth_kind(self, sensor_id: int) -> Optional[str]:
        """The corruptor kind planted on ``sensor_id`` (None if clean)."""
        for injection in self.injections:
            if sensor_id in injection.sensor_ids:
                return injection.corruptor.kind
        return None

    def __call__(self, message: SensorMessage) -> Optional[SensorMessage]:
        """CorruptionStage entry point used by the simulator."""
        for injection in self.injections:
            if not injection.applies_to(message.sensor_id, message.timestamp):
                continue
            truth = self.environment.value_at(message.timestamp)
            corrupted = injection.corruptor.corrupt(
                message, truth, injection.schedule.elapsed(message.timestamp)
            )
            if corrupted is not None and corrupted.attributes != message.attributes:
                self._flush_events()
                self._events.append(
                    CorruptionEvent(
                        sensor_id=message.sensor_id,
                        timestamp=message.timestamp,
                        kind=injection.corruptor.kind,
                        malicious=injection.corruptor.malicious,
                    )
                )
            return corrupted
        return message

    def apply_columnar(
        self,
        tick_times: np.ndarray,
        sensor_ids: np.ndarray,
        values: np.ndarray,
    ) -> np.ndarray:
        """Vectorised equivalent of streaming every message through ``__call__``.

        Parameters
        ----------
        tick_times:
            ``(T,)`` sampling times in minutes.
        sensor_ids:
            ``(S,)`` sensor id of each column, in mote iteration order.
        values:
            ``(T, S, d)`` report grid, **modified in place**.

        Returns the ``(T, S)`` delivered mask: reports that no
        corruptor suppressed.  The ground-truth ``events`` log receives
        exactly the entries (and order) the scalar path would append;
        they are kept as index arrays and built on first read.
        """
        tick_times = np.asarray(tick_times, dtype=float)
        sensor_ids = np.asarray(sensor_ids)
        n_ticks, n_sensors, _ = values.shape
        delivered = np.ones((n_ticks, n_sensors), dtype=bool)
        # First-match-wins: a cell visited by an earlier injection is
        # consumed even when that injection left the report unchanged.
        claimed = np.zeros((n_ticks, n_sensors), dtype=bool)
        truth_all: Optional[np.ndarray] = None
        blocks: List[_EventBlock] = []
        for injection in self.injections:
            sensor_mask = np.isin(sensor_ids, list(injection.sensor_ids))
            if not sensor_mask.any():
                continue
            time_mask = injection.schedule.active_mask(tick_times)
            cell_mask = (
                time_mask[:, None]
                & sensor_mask[None, :]
                & delivered
                & ~claimed
            )
            if not cell_mask.any():
                continue
            claimed |= cell_mask
            # np.nonzero walks the grid row-major: tick-major, then mote
            # order — the exact order the scalar stream visits messages,
            # which stateful RNG corruptors rely on.
            tt, ss = np.nonzero(cell_mask)
            if truth_all is None:
                truth_all = self.environment.values_at(tick_times)
            sub_values = values[tt, ss]
            new_values, sub_delivered = injection.corruptor.corrupt_columnar(
                sub_values,
                truth_all[tt],
                injection.schedule.elapsed_array(tick_times)[tt],
            )
            values[tt, ss] = new_values
            delivered[tt, ss] = sub_delivered
            changed = np.any(new_values != sub_values, axis=1) & sub_delivered
            if changed.any():
                blocks.append(
                    (
                        tt[changed],
                        ss[changed],
                        injection.corruptor.kind,
                        injection.corruptor.malicious,
                    )
                )
        if blocks:
            self._pending.append((tick_times.copy(), sensor_ids.copy(), blocks))
        return delivered

    def events_by_sensor(self) -> Dict[int, List[CorruptionEvent]]:
        """Group the ground-truth log per sensor."""
        grouped: Dict[int, List[CorruptionEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.sensor_id, []).append(event)
        return grouped
