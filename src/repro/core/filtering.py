"""Alarm filtering (paper §3.1, Alarm Filtering module).

Raw alarms are integrated into stable *filtered* alarms.  The paper's
"simple approach" is the k-of-n rule; it also points at change-detection
schemes — the Sequential Probability Ratio Test (SPRT) and the CUSUM
procedure (Basseville & Nikiforov [9]) — which are implemented here as
drop-in alternatives.  All filters share one interface:

    filter.update(raw: bool) -> bool     # new filtered-alarm state

and a :class:`FilterBank` manages one filter instance per sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

import numpy as np

from .kernels import cusum_step, k_of_n_lockstep, sprt_step


class AlarmFilter:
    """Interface of a per-sensor alarm filter (stateful)."""

    def update(self, raw: bool) -> bool:
        """Consume one raw-alarm boolean; return the filtered state."""
        raise NotImplementedError

    @property
    def active(self) -> bool:
        """Current filtered-alarm state."""
        raise NotImplementedError

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


class VectorFilterBank:
    """Struct-of-arrays :class:`FilterBank` for homogeneous filter banks.

    Holds every per-sensor filter statistic as one ``(n_sensors,)``
    array — k-of-n ring buffers, SPRT log-likelihood ratios, CUSUM
    scores — and advances all of them with one vectorized
    :meth:`update_batch` per window.  The update recurrences are
    elementwise translations of the scalar filters, so the produced
    transitions, active sets, and ``state_dict`` payloads are
    bit-identical to a :class:`FilterBank` fed the same stream; v2
    checkpoints round-trip freely across both implementations.

    The bank is homogeneous: every sensor shares one filter kind and one
    parameter set.  :meth:`load_state_dict` rejects payloads that mix
    kinds or parameters (a scalar bank restored from a checkpoint taken
    under a different configuration can hold those; the fused pipeline
    path falls back to the scalar oracle in that case, see DESIGN.md
    §11).
    """

    def __init__(self, kind: str, params: Dict[str, object]):
        if kind not in _FILTER_CLASSES:
            raise ValueError(f"unknown alarm filter kind: {kind!r}")
        self.kind = kind
        self._slot_of: Dict[int, int] = {}
        self._capacity = 0
        self._active = np.zeros(0, dtype=bool)
        # Memoized sensor-id-array -> slot-index-array mapping for the
        # common case of the same sensor population every window (slots
        # are append-only, so a cached mapping never goes stale).  The
        # final flag marks "the ids cover every live slot in order", which
        # lets updates swap fancy indexing for whole-array slices.
        self._slot_cache: Optional[Tuple[bytes, np.ndarray, bool]] = None
        # Common ring position shared by *all* k-of-n slots, or None once
        # a partial update (or an unevenly restored snapshot) desyncs
        # them.  While synced, the ring eviction column is one basic
        # slice instead of a 2-d gather.
        self._pos_sync: Optional[int] = 0
        if kind == "k_of_n":
            self.k = int(params["k"])
            self.n = int(params["n"])
            if not 1 <= self.k <= self.n:
                raise ValueError("need 1 <= k <= n")
            self._buf = np.zeros((0, self.n), dtype=bool)
            self._pos = np.zeros(0, dtype=np.int64)
            self._updates = np.zeros(0, dtype=np.int64)
            self._count = np.zeros(0, dtype=np.int64)
        elif kind == "sprt":
            self.p0 = float(params["p0"])
            self.p1 = float(params["p1"])
            self.alpha = float(params["alpha"])
            self.beta = float(params["beta"])
            if not 0.0 < self.p0 < self.p1 < 1.0:
                raise ValueError("need 0 < p0 < p1 < 1")
            if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
                raise ValueError("alpha and beta must be in (0, 1)")
            # Hoisted once; math.log is deterministic, so these equal the
            # per-update logs the scalar filter computes.
            self._log_up = math.log(self.p1 / self.p0)
            self._log_down = math.log((1.0 - self.p1) / (1.0 - self.p0))
            self._upper = math.log((1.0 - self.beta) / self.alpha)
            self._lower = math.log(self.beta / (1.0 - self.alpha))
            self._llr = np.zeros(0, dtype=float)
        elif kind == "cusum":
            self.drift = float(params["drift"])
            self.threshold = float(params["threshold"])
            if not 0.0 < self.drift < 1.0:
                raise ValueError("drift must be in (0, 1)")
            if self.threshold <= 0:
                raise ValueError("threshold must be positive")
            self._g = np.zeros(0, dtype=float)

    @classmethod
    def from_prototype(cls, prototype: AlarmFilter) -> "VectorFilterBank":
        """Build an empty bank matching one scalar filter's kind/params.

        ``prototype`` must be a pristine instance of one of the three
        stock filter classes exactly (a subclass may override ``update``,
        and a pre-seeded prototype would diverge from the zero state this
        bank gives newly seen sensors) — otherwise ``ValueError``.
        """
        if type(prototype) is KOfNFilter:
            bank = cls("k_of_n", {"k": prototype.k, "n": prototype.n})
        elif type(prototype) is SPRTFilter:
            bank = cls(
                "sprt",
                {
                    "p0": prototype.p0,
                    "p1": prototype.p1,
                    "alpha": prototype.alpha,
                    "beta": prototype.beta,
                },
            )
        elif type(prototype) is CUSUMFilter:
            bank = cls(
                "cusum",
                {"drift": prototype.drift, "threshold": prototype.threshold},
            )
        else:
            raise ValueError(
                "VectorFilterBank requires a stock KOfNFilter/SPRTFilter/"
                f"CUSUMFilter prototype, got {type(prototype).__name__}"
            )
        if prototype.state_dict() != bank._pristine_state():
            raise ValueError(
                "filter factory returns pre-seeded filters; the vector "
                "bank can only mirror pristine per-sensor state"
            )
        return bank

    def _pristine_state(self) -> Dict[str, object]:
        """state_dict of the zero-state filter new sensors start from."""
        if self.kind == "k_of_n":
            return {
                "kind": "k_of_n",
                "k": self.k,
                "n": self.n,
                "window": [],
                "active": False,
            }
        if self.kind == "sprt":
            return {
                "kind": "sprt",
                "p0": self.p0,
                "p1": self.p1,
                "alpha": self.alpha,
                "beta": self.beta,
                "llr": 0.0,
                "active": False,
            }
        return {
            "kind": "cusum",
            "drift": self.drift,
            "threshold": self.threshold,
            "g": 0.0,
            "active": False,
        }

    # -- slot management --------------------------------------------------

    def _grow_one(self, sensor_id: int) -> int:
        slot = len(self._slot_of)
        if slot == self._capacity:
            new_cap = max(8, 2 * self._capacity)
            grow = new_cap - self._capacity
            self._active = np.concatenate(
                [self._active, np.zeros(grow, dtype=bool)]
            )
            if self.kind == "k_of_n":
                self._buf = np.concatenate(
                    [self._buf, np.zeros((grow, self.n), dtype=bool)]
                )
                self._pos = np.concatenate(
                    [self._pos, np.zeros(grow, dtype=np.int64)]
                )
                self._updates = np.concatenate(
                    [self._updates, np.zeros(grow, dtype=np.int64)]
                )
                self._count = np.concatenate(
                    [self._count, np.zeros(grow, dtype=np.int64)]
                )
            elif self.kind == "sprt":
                self._llr = np.concatenate([self._llr, np.zeros(grow)])
            else:
                self._g = np.concatenate([self._g, np.zeros(grow)])
            self._capacity = new_cap
        self._slot_of[sensor_id] = slot
        # A newcomer's ring starts at position 0; existing rings keep the
        # lockstep invariant only if they are also at 0.
        if self._pos_sync != 0:
            self._pos_sync = None
        return slot

    def _slots_for(self, sids: np.ndarray) -> "Tuple[np.ndarray, bool]":
        """Slot indices for ascending sensor ids, creating missing slots.

        Also reports whether the ids map onto ``0..n_live-1`` in order
        (every live slot updated, none skipped) — the shape that allows
        whole-array update kernels.
        """
        key = sids.tobytes()
        cached = self._slot_cache
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        slot_of = self._slot_of
        slots = np.empty(len(sids), dtype=np.intp)
        for i, sid_raw in enumerate(sids):
            sid = int(sid_raw)
            slot = slot_of.get(sid)
            if slot is None:
                slot = self._grow_one(sid)
            slots[i] = slot
        full = len(slots) == len(slot_of) and bool(
            (slots == np.arange(len(slots))).all()
        )
        self._slot_cache = (key, slots, full)
        return slots, full

    # -- updates ----------------------------------------------------------

    def update_batch(
        self,
        window_index: int,
        sensor_ids: Sequence[int],
        raw: Sequence[bool],
        *,
        assume_sorted: bool = False,
    ) -> List[FilterTransition]:
        """Advance every reporting sensor's filter with one array pass.

        Sensors are processed in ascending id order (matching
        ``FilterBank.update`` over ``sorted(raw_by_sensor.items())``);
        absent sensors keep their state untouched, exactly like the
        scalar bank.  Returns the filtered-alarm transitions in the same
        order the scalar bank emits them.  ``assume_sorted`` skips the
        ascending-id check for callers (the fused pipeline) that already
        hold the ids strictly ascending.
        """
        sids = np.asarray(sensor_ids)
        raws = np.asarray(raw, dtype=bool)
        if (
            not assume_sorted
            and len(sids) > 1
            and not np.all(sids[1:] > sids[:-1])
        ):
            order = np.argsort(sids, kind="stable")
            sids = sids[order]
            raws = raws[order]
        slots, full = self._slots_for(sids)
        if len(slots) == 0:
            return []
        # When every live slot updates in order, basic slices replace the
        # fancy gathers/scatters — same elements, same values, just read
        # and written through views.
        sel: "object" = slice(0, len(slots)) if full else slots
        before = self._active[sel].copy()
        if self.kind == "k_of_n":
            if full and self._pos_sync is not None:
                self._update_k_of_n_lockstep(len(slots), raws)
            else:
                self._pos_sync = None
                self._update_k_of_n(slots, raws)
        elif self.kind == "sprt":
            self._update_sprt(sel, raws)
        else:
            self._update_cusum(sel, raws)
        after = self._active[sel]
        changed = np.flatnonzero(before != after)
        return [
            FilterTransition(
                sensor_id=int(sids[i]),
                window_index=window_index,
                raised=bool(after[i]),
            )
            for i in changed
        ]

    def _update_k_of_n_lockstep(self, live: int, raws: np.ndarray) -> None:
        """:meth:`_update_k_of_n` when all ``live`` rings share one write
        position — integer arithmetic on whole-array views, so the state
        arrays end bit-identical to the gather/scatter kernel's."""
        p = self._pos_sync
        assert p is not None
        k_of_n_lockstep(
            self._buf[:live],
            p,
            raws,
            self._count[:live],
            self._active[:live],
            self.k,
        )
        advanced = (p + 1) % self.n
        self._pos[:live] = advanced
        self._pos_sync = advanced
        self._updates[:live] += 1

    def fixed_raw_flips(
        self, sensor_ids: np.ndarray, raws: np.ndarray
    ) -> "Optional[Dict[int, List[Tuple[int, bool]]]]":
        """The filtered-alarm flips of the next ``n`` updates with the
        fixed ``raws``, or None when the bank cannot predict them.

        Holds for a lockstep k-of-n bank updated over exactly
        ``sensor_ids`` (every live slot, ascending — the ``full``
        shape): each update evicts a ring's oldest cell and inserts the
        sensor's raw, so every count, and with it every active flag, is
        known ``n`` updates ahead, and after ``n`` updates each ring
        holds only its raw and nothing but the write position and the
        update counters moves.  Returns ``{step: [(slot, raised), ...]}``
        for the 0-based updates that flip a flag, slots ascending —
        exactly the transitions :meth:`update_batch` would emit.
        SPRT/CUSUM statistics keep moving under a fixed input, so they
        never qualify.  Pair with :meth:`advance_fixed`.
        """
        if self.kind != "k_of_n":
            return None
        # Slot lookup first: a newly seen sensor grows the bank and may
        # break the lockstep.
        slots, full = self._slots_for(sensor_ids)
        start = self._pos_sync
        if start is None or not full or len(slots) == 0:
            return None
        live = len(slots)
        n, k = self.n, self.k
        flips: Dict[int, List[Tuple[int, bool]]] = {}
        # Plain lists: the banks are tiny, and most rings are already
        # saturated at their raw (count 0 for False, n for True).
        for slot, (ring, count, active, raw) in enumerate(
            zip(
                self._buf[:live].tolist(),
                self._count[:live].tolist(),
                self._active[:live].tolist(),
                raws.tolist(),
            )
        ):
            if count == (n if raw else 0) and active == (count >= k):
                continue
            for step in range(n):
                count += raw - ring[(start + step) % n]
                if (count >= k) != active:
                    active = not active
                    flips.setdefault(step, []).append((slot, active))
        return flips

    def advance_fixed(self, raws: np.ndarray, count: int) -> None:
        """Apply ``count`` deferred updates with the fixed ``raws``.

        Only valid after :meth:`fixed_raw_flips` returned a plan for
        these raws and no other update ran since: each ring takes
        ``min(count, n)`` copies of its raw, counts and active flags
        follow, and positions and update counters advance ``count``
        steps — the state ``count`` calls of :meth:`update_batch` leave.
        """
        if count <= 0:
            return
        start = self._pos_sync
        assert start is not None
        live = len(self._slot_of)
        n = self.n
        cells = self._buf[:live]
        column = raws[:, None]
        # The written cells run from ``start`` for min(count, n) steps,
        # wrapping at most once.
        end = start + min(count, n)
        cells[:, start:end] = column
        if end > n:
            cells[:, : end - n] = column
        counts = self._count[:live]
        counts[:] = cells.sum(axis=1)
        np.greater_equal(counts, self.k, out=self._active[:live])
        advanced = (start + count) % n
        self._pos[:live] = advanced
        self._pos_sync = advanced
        self._updates[:live] += count

    def _update_k_of_n(self, slots: np.ndarray, raws: np.ndarray) -> None:
        # Ring cells that were never written are False (allocation and
        # snapshot restore both guarantee it), so the evicted value can
        # be read unconditionally — a not-yet-full ring evicts False,
        # exactly like the scalar filter's shorter deque.
        pos = self._pos[slots]
        removed = self._buf[slots, pos]
        count = self._count[slots] + (raws.astype(np.int64) - removed)
        self._count[slots] = count
        self._buf[slots, pos] = raws
        self._pos[slots] = (pos + 1) % self.n
        self._updates[slots] += 1
        self._active[slots] = count >= self.k

    def _update_sprt(self, slots: "object", raws: np.ndarray) -> None:
        # ``slots`` is a slot-index array, or a basic slice covering every
        # live slot in order (same elements either way).  The kernel
        # returns fresh gathered arrays; scatter them back.
        llr, active = sprt_step(
            self._llr[slots],
            raws,
            self._active[slots],
            self._log_up,
            self._log_down,
            self._upper,
            self._lower,
        )
        self._active[slots] = active
        self._llr[slots] = llr

    def _update_cusum(self, slots: "object", raws: np.ndarray) -> None:
        # ``slots``: see :meth:`_update_sprt`.
        g, active = cusum_step(
            self._g[slots],
            raws,
            self._active[slots],
            self.drift,
            self.threshold,
        )
        self._g[slots] = g
        self._active[slots] = active

    def update(
        self, window_index: int, raw_by_sensor: Dict[int, bool]
    ) -> List[FilterTransition]:
        """:meth:`FilterBank.update`-compatible entry point."""
        items = sorted(raw_by_sensor.items())
        return self.update_batch(
            window_index,
            np.array([sid for sid, _ in items], dtype=np.int64),
            np.array([bool(raw) for _, raw in items], dtype=bool),
        )

    # -- queries ----------------------------------------------------------

    def active_sensors(self) -> List[int]:
        """Sensors whose filtered alarm is currently set."""
        return sorted(
            sid for sid, slot in self._slot_of.items() if self._active[slot]
        )

    def is_active(self, sensor_id: int) -> bool:
        """Filtered-alarm state of one sensor (False if never seen)."""
        slot = self._slot_of.get(sensor_id)
        return bool(self._active[slot]) if slot is not None else False

    # -- checkpointing ----------------------------------------------------

    def _sensor_state(self, slot: int) -> Dict[str, object]:
        if self.kind == "k_of_n":
            length = min(int(self._updates[slot]), self.n)
            pos = int(self._pos[slot])
            if length < self.n:
                window = self._buf[slot, :length]
            else:
                window = np.concatenate(
                    [self._buf[slot, pos:], self._buf[slot, :pos]]
                )
            return {
                "kind": "k_of_n",
                "k": self.k,
                "n": self.n,
                "window": [bool(x) for x in window],
                "active": bool(self._active[slot]),
            }
        if self.kind == "sprt":
            return {
                "kind": "sprt",
                "p0": self.p0,
                "p1": self.p1,
                "alpha": self.alpha,
                "beta": self.beta,
                "llr": float(self._llr[slot]),
                "active": bool(self._active[slot]),
            }
        return {
            "kind": "cusum",
            "drift": self.drift,
            "threshold": self.threshold,
            "g": float(self._g[slot]),
            "active": bool(self._active[slot]),
        }

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot, byte-compatible with ``FilterBank``'s."""
        return {
            "filters": [
                [sensor_id, self._sensor_state(self._slot_of[sensor_id])]
                for sensor_id in sorted(self._slot_of)
            ]
        }

    def load_state_dict(self, payload: Dict[str, object]) -> None:
        """Replace all per-sensor state with a snapshot's contents.

        Accepts snapshots written by either bank implementation.  Raises
        ``ValueError`` when any per-sensor entry's kind or parameters
        differ from this bank's (heterogeneous banks need the scalar
        implementation).
        """
        entries = [(int(sid), state) for sid, state in payload["filters"]]
        for _, state in entries:
            self._check_compatible(state)
        self._slot_of = {}
        self._capacity = 0
        self._slot_cache = None
        self._active = np.zeros(0, dtype=bool)
        if self.kind == "k_of_n":
            self._buf = np.zeros((0, self.n), dtype=bool)
            self._pos = np.zeros(0, dtype=np.int64)
            self._updates = np.zeros(0, dtype=np.int64)
            self._count = np.zeros(0, dtype=np.int64)
        elif self.kind == "sprt":
            self._llr = np.zeros(0, dtype=float)
        else:
            self._g = np.zeros(0, dtype=float)
        for sid, state in entries:
            slot = self._grow_one(sid)
            self._active[slot] = bool(state["active"])
            if self.kind == "k_of_n":
                window = [bool(x) for x in state["window"]]
                if len(window) > self.n:
                    raise ValueError(
                        f"k-of-n window longer than n={self.n} in snapshot"
                    )
                length = len(window)
                self._buf[slot, :length] = window
                # Oldest entry sits at index 0, so the ring's write
                # position is `length % n` (0 when the buffer is full).
                self._pos[slot] = length % self.n
                self._updates[slot] = length
                self._count[slot] = sum(window)
            elif self.kind == "sprt":
                self._llr[slot] = float(state["llr"])
            else:
                self._g[slot] = float(state["g"])
        if self.kind == "k_of_n":
            live = len(self._slot_of)
            pos = self._pos[:live]
            if live == 0:
                self._pos_sync = 0
            elif bool((pos == pos[0]).all()):
                self._pos_sync = int(pos[0])
            else:
                self._pos_sync = None

    def _check_compatible(self, state: Dict[str, object]) -> None:
        kind = state.get("kind")
        if kind != self.kind:
            raise ValueError(
                f"snapshot filter kind {kind!r} does not match "
                f"vector bank kind {self.kind!r}"
            )
        if self.kind == "k_of_n":
            same = int(state["k"]) == self.k and int(state["n"]) == self.n
        elif self.kind == "sprt":
            same = (
                float(state["p0"]) == self.p0
                and float(state["p1"]) == self.p1
                and float(state["alpha"]) == self.alpha
                and float(state["beta"]) == self.beta
            )
        else:
            same = (
                float(state["drift"]) == self.drift
                and float(state["threshold"]) == self.threshold
            )
        if not same:
            raise ValueError(
                "snapshot filter parameters differ from the vector "
                "bank's; heterogeneous banks need the scalar FilterBank"
            )
