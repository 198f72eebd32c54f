"""Alarm filtering (paper §3.1, Alarm Filtering module).

Raw alarms are integrated into stable *filtered* alarms.  The paper's
"simple approach" is the k-of-n rule; it also points at change-detection
schemes — the Sequential Probability Ratio Test (SPRT) and the CUSUM
procedure (Basseville & Nikiforov [9]) — which are implemented here as
drop-in alternatives.  All filters share one interface:

    filter.update(raw: bool) -> bool     # new filtered-alarm state

and a :class:`FilterBank` manages one filter instance per sensor.  The
batch, streamed and per-window reference paths of the detection
pipeline all drive that one bank; ``filter.settled(raw)`` tells the
pipeline's certified stretches when an update would change nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections import deque
from typing import Callable, Deque, Dict, List


class AlarmFilter:
    """Interface of a per-sensor alarm filter (stateful)."""

    def update(self, raw: bool) -> bool:
        """Consume one raw-alarm boolean; return the filtered state."""
        raise NotImplementedError

    @property
    def active(self) -> bool:
        """Current filtered-alarm state."""
        raise NotImplementedError

    def settled(self, raw: bool) -> bool:
        """True when ``update(raw)`` would change no state.

        A certified stretch feeds each sensor the same raw alarm window
        after window and stops updating a filter once it is settled
        under that raw.  False is always a safe answer, and the default;
        the stock filters answer only for their own ``update``, so a
        subclass that overrides it gets the default.
        """
        return False

    def reset(self) -> None:
        """Forget all history."""
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (parameters plus mutable state)."""
        raise NotImplementedError


@dataclass
class KOfNFilter(AlarmFilter):
    """Filtered alarm iff at least ``k`` of the last ``n`` raw alarms fired.

    This is exactly the paper's simple rule ("generate a filtered alarm
    only after receiving k raw alarms in the last n time steps").
    """

    k: int = 3
    n: int = 5
    _window: Deque[bool] = field(default_factory=deque, repr=False)
    _active: bool = field(default=False, repr=False)
    # Running number of True entries in ``_window`` so each update is
    # O(1) instead of re-summing the whole deque.  Derived state: never
    # serialized (state_dict layout is unchanged), recomputed on restore.
    _count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        self._count = sum(self._window)

    def update(self, raw: bool) -> bool:
        raw = bool(raw)
        self._window.append(raw)
        self._count += raw
        if len(self._window) > self.n:
            self._count -= self._window.popleft()
        self._active = self._count >= self.k
        return self._active

    def settled(self, raw: bool) -> bool:
        # A full ring holding only ``raw`` evicts one ``raw`` and takes
        # one back: ring, count and a consistent flag stay as they are.
        return (
            type(self).update is KOfNFilter.update
            and len(self._window) == self.n
            and self._count == (self.n if raw else 0)
            and self._active == (self._count >= self.k)
        )

    @property
    def active(self) -> bool:
        return self._active

    def reset(self) -> None:
        self._window.clear()
        self._count = 0
        self._active = False

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": "k_of_n",
            "k": self.k,
            "n": self.n,
            "window": [bool(x) for x in self._window],
            "active": self._active,
        }

    @classmethod
    def from_state_dict(cls, payload: Dict[str, object]) -> "KOfNFilter":
        filt = cls(k=int(payload["k"]), n=int(payload["n"]))
        filt._window = deque(bool(x) for x in payload["window"])
        filt._count = sum(filt._window)
        filt._active = bool(payload["active"])
        return filt


@dataclass
class SPRTFilter(AlarmFilter):
    """Wald's Sequential Probability Ratio Test on the alarm stream.

    Tests H0 "healthy" (alarm probability ``p0``) against H1 "anomalous"
    (alarm probability ``p1``) with error targets ``alpha`` (false
    positive) and ``beta`` (false negative).  Accepting H1 raises the
    filtered alarm; accepting H0 clears it; either decision restarts the
    test so the filter keeps tracking regime changes.
    """

    p0: float = 0.02
    p1: float = 0.65
    alpha: float = 0.01
    beta: float = 0.01
    _llr: float = field(default=0.0, repr=False)
    _active: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.p0 < self.p1 < 1.0:
            raise ValueError("need 0 < p0 < p1 < 1")
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise ValueError("alpha and beta must be in (0, 1)")

    @property
    def upper_threshold(self) -> float:
        """Accept-H1 boundary ``log((1-beta)/alpha)``."""
        return math.log((1.0 - self.beta) / self.alpha)

    @property
    def lower_threshold(self) -> float:
        """Accept-H0 boundary ``log(beta/(1-alpha))``."""
        return math.log(self.beta / (1.0 - self.alpha))

    def update(self, raw: bool) -> bool:
        if raw:
            self._llr += math.log(self.p1 / self.p0)
        else:
            self._llr += math.log((1.0 - self.p1) / (1.0 - self.p0))
        if self._llr >= self.upper_threshold:
            self._active = True
            self._llr = 0.0
        elif self._llr <= self.lower_threshold:
            self._active = False
            self._llr = 0.0
        return self._active

    @property
    def active(self) -> bool:
        return self._active

    def reset(self) -> None:
        self._llr = 0.0
        self._active = False

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": "sprt",
            "p0": self.p0,
            "p1": self.p1,
            "alpha": self.alpha,
            "beta": self.beta,
            "llr": self._llr,
            "active": self._active,
        }

    @classmethod
    def from_state_dict(cls, payload: Dict[str, object]) -> "SPRTFilter":
        filt = cls(
            p0=float(payload["p0"]),
            p1=float(payload["p1"]),
            alpha=float(payload["alpha"]),
            beta=float(payload["beta"]),
        )
        filt._llr = float(payload["llr"])
        filt._active = bool(payload["active"])
        return filt


@dataclass
class CUSUMFilter(AlarmFilter):
    """One-sided CUSUM on the alarm stream.

    Accumulates ``g = max(0, g + x - drift)`` where ``x`` is the raw
    alarm indicator; the filtered alarm sets when ``g`` exceeds
    ``threshold`` and clears when ``g`` returns to zero.  ``drift``
    should sit between the healthy and anomalous alarm rates.
    """

    drift: float = 0.25
    threshold: float = 2.0
    _g: float = field(default=0.0, repr=False)
    _active: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.drift < 1.0:
            raise ValueError("drift must be in (0, 1)")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")

    def update(self, raw: bool) -> bool:
        self._g = max(0.0, self._g + (1.0 if raw else 0.0) - self.drift)
        if self._g > self.threshold:
            self._active = True
        elif self._g == 0.0:
            self._active = False
        return self._active

    def settled(self, raw: bool) -> bool:
        # At g == +0.0 a False raw keeps g at max(0, -drift) == +0.0,
        # and an inactive filter stays inactive.
        return (
            type(self).update is CUSUMFilter.update
            and not raw
            and not self._active
            and self._g == 0.0
            and math.copysign(1.0, self._g) > 0.0
        )

    @property
    def active(self) -> bool:
        return self._active

    def reset(self) -> None:
        self._g = 0.0
        self._active = False

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": "cusum",
            "drift": self.drift,
            "threshold": self.threshold,
            "g": self._g,
            "active": self._active,
        }

    @classmethod
    def from_state_dict(cls, payload: Dict[str, object]) -> "CUSUMFilter":
        filt = cls(drift=float(payload["drift"]), threshold=float(payload["threshold"]))
        filt._g = float(payload["g"])
        filt._active = bool(payload["active"])
        return filt


#: filter kind tag -> restoring class, for checkpoint round-trips.
_FILTER_CLASSES = {
    "k_of_n": KOfNFilter,
    "sprt": SPRTFilter,
    "cusum": CUSUMFilter,
}


def filter_from_state_dict(payload: Dict[str, object]) -> AlarmFilter:
    """Rebuild any alarm filter from its :meth:`~AlarmFilter.state_dict`."""
    kind = payload.get("kind")
    if kind not in _FILTER_CLASSES:
        raise ValueError(f"unknown alarm filter kind: {kind!r}")
    return _FILTER_CLASSES[kind].from_state_dict(payload)


@dataclass(frozen=True)
class FilterTransition:
    """A filtered alarm changed state for one sensor."""

    sensor_id: int
    window_index: int
    raised: bool  # True = alarm set, False = alarm cleared


@dataclass
class FilterBank:
    """One alarm filter per sensor, created on demand from a factory."""

    factory: Callable[[], AlarmFilter] = KOfNFilter
    filters: Dict[int, AlarmFilter] = field(default_factory=dict)

    def filter_for(self, sensor_id: int) -> AlarmFilter:
        """Get (or lazily create) the filter of one sensor."""
        if sensor_id not in self.filters:
            self.filters[sensor_id] = self.factory()
        return self.filters[sensor_id]

    def update(
        self, window_index: int, raw_by_sensor: Dict[int, bool]
    ) -> List[FilterTransition]:
        """Feed one window of raw alarms; return state transitions."""
        transitions: List[FilterTransition] = []
        for sensor_id, raw in sorted(raw_by_sensor.items()):
            filt = self.filter_for(sensor_id)
            before = filt.active
            after = filt.update(raw)
            if after != before:
                transitions.append(
                    FilterTransition(
                        sensor_id=sensor_id,
                        window_index=window_index,
                        raised=after,
                    )
                )
        return transitions

    def active_sensors(self) -> List[int]:
        """Sensors whose filtered alarm is currently set."""
        return sorted(s for s, f in self.filters.items() if f.active)

    def is_active(self, sensor_id: int) -> bool:
        """Filtered-alarm state of one sensor (False if never seen)."""
        filt = self.filters.get(sensor_id)
        return filt.active if filt is not None else False

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every per-sensor filter."""
        return {
            "filters": [
                [sensor_id, self.filters[sensor_id].state_dict()]
                for sensor_id in sorted(self.filters)
            ]
        }

    def load_state_dict(self, payload: Dict[str, object]) -> None:
        """Replace all per-sensor filters with a snapshot's contents.

        The bank keeps its current ``factory`` (supplied by the pipeline
        configuration) for sensors first seen after the restore.
        """
        self.filters = {
            int(sensor_id): filter_from_state_dict(state)
            for sensor_id, state in payload["filters"]
        }
