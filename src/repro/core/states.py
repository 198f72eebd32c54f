"""Model states: the shared vocabulary of the whole methodology.

The Model State Identification module maintains a small set
``S = {s_1..s_M}`` of attribute vectors that "synthetically describe the
physical conditions traversed by the sensed phenomenon and by
error/attack data" (§3.1).  Both HMMs use these states as hidden states
*and* observation symbols, so state identity must survive online updates,
merges, and spawns — hence every state carries a stable integer id that
never gets reused.

The set sits on the pipeline's per-window hot path (the procedure is
explicitly *on-the-fly*, so per-window cost on the collector node is a
first-class result).  Queries therefore run against a cached ``(M, d)``
matrix of state vectors: ``nearest``, ``assign_batch`` and
``closest_pair`` (which builds its ``(M, M)`` pair matrix from the cached
one per scan) are single NumPy reductions instead of per-state Python
loops.  Structural edits (:meth:`spawn`, :meth:`merge`, :meth:`expel`)
invalidate the cache; vector writes MUST go through
:meth:`update_vector` (or :meth:`apply_steady_motion`) so the cache
stays coherent.  All vectorized queries break distance ties toward the
lowest state id, exactly like the scalar reference implementations they
replaced (``_nearest_scalar`` / ``_closest_pair_scalar``, kept for the
equivalence property tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import pairwise_distances

#: Sentinel id for the fictitious ⊥ symbol used by error/attack tracks
#: when a tracked sensor agrees with the majority (§3.1).
BOTTOM_STATE_ID = -1

#: Memoised ``np.tril_indices(M)`` per M: every pair scan (full step or
#: in-stretch rescan) needs one and M stays tiny, so the index arrays
#: are worth keeping.
_TRIL_CACHE: Dict[int, "tuple[np.ndarray, np.ndarray]"] = {}


def _tril_indices(n: int) -> "tuple[np.ndarray, np.ndarray]":
    indices = _TRIL_CACHE.get(n)
    if indices is None:
        indices = _TRIL_CACHE[n] = np.tril_indices(n)
    return indices


def _pair_matrix(matrix: np.ndarray) -> np.ndarray:
    """``(M, M)`` pairwise state distances, upper triangle only (the
    diagonal and below are ``inf``).  Callers hold
    ``np.errstate(over="ignore")``."""
    diff = matrix[:, None, :] - matrix[None, :, :]
    distances = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
    distances[_tril_indices(matrix.shape[0])] = np.inf
    return distances


@dataclass
class ModelState:
    """One model state: a stable id plus a drifting attribute vector.

    Attributes
    ----------
    state_id:
        Stable, never-reused identifier.
    vector:
        Current attribute estimate (updated online via Eq. 6).  Inside a
        :class:`StateSet`, reassign it via ``StateSet.update_vector`` so
        the set's query cache stays coherent.
    visits:
        How many window updates mapped at least one observation here;
        used to prune spurious states (Fig. 7 discussion).
    """

    state_id: int
    vector: np.ndarray
    visits: int = 0

    def __post_init__(self) -> None:
        self.vector = np.asarray(self.vector, dtype=float).copy()
        if self.vector.ndim != 1 or self.vector.size == 0:
            raise ValueError("state vector must be a non-empty 1-D array")

    def distance_to(self, point: np.ndarray) -> float:
        """Euclidean distance from this state to ``point``."""
        with np.errstate(over="ignore"):  # huge magnitudes saturate to inf
            return float(
                np.linalg.norm(self.vector - np.asarray(point, dtype=float))
            )

    def label(self) -> str:
        """The paper's ``(temp, humidity)``-style display label."""
        coords = ",".join(f"{x:.0f}" for x in self.vector)
        return f"({coords})"


class StateSet:
    """An ordered, id-stable collection of model states.

    Supports the three structural operations the online clusterer needs:
    nearest-state queries, spawning, and merging.  Merged-away ids are
    remembered in an alias table so downstream consumers (HMMs, tracks)
    can keep referring to them.
    """

    def __init__(self, initial_vectors: Optional[Sequence[np.ndarray]] = None):
        self._states: Dict[int, ModelState] = {}
        self._aliases: Dict[int, int] = {}
        self._next_id = 0
        #: Attribute dimensionality, remembered from the first state ever
        #: spawned so :meth:`vectors` can report ``(0, d)`` when emptied.
        self._dim: Optional[int] = None
        #: Lazily rebuilt ``(M, d)`` matrix of live vectors in id order,
        #: plus the ids labelling its rows.  ``None`` marks it stale.
        self._matrix: Optional[np.ndarray] = None
        self._matrix_ids: Optional[List[int]] = None
        #: Owner-private scratch for the distance kernel (the NumPy
        #: flavor recycles its (diff, squared-norm) buffers in here,
        #: keyed implicitly by shape).  One dict per StateSet — never
        #: shared across instances, so interleaving two sets can never
        #: alias each other's buffers.
        self._distance_scratch: Dict[str, object] = {}
        #: Certified lower bound on the current minimum pairwise distance,
        #: or ``None`` when unknown.  Set to the found minimum after every
        #: :meth:`closest_pair` scan; an Eq. 6 move of magnitude ``δ`` can
        #: shrink any distance by at most ``δ`` (triangle inequality), so
        #: :meth:`update_vector` decays the bound instead of voiding it.
        #: Spawns and merges introduce/relocate pairs unpredictably and
        #: reset it.  Every decay over-subtracts a relative slack so
        #: floating-point drift can never certify a distance the next
        #: scan would actually measure below the bound.
        self._pair_min_bound: Optional[float] = None
        if initial_vectors is not None:
            for vector in initial_vectors:
                self.spawn(vector)

    # -- basic container behaviour -------------------------------------

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[ModelState]:
        return iter(sorted(self._states.values(), key=lambda s: s.state_id))

    def __contains__(self, state_id: int) -> bool:
        return self.resolve(state_id) in self._states

    @property
    def state_ids(self) -> List[int]:
        """Live state ids in creation order."""
        return sorted(self._states.keys())

    def get(self, state_id: int) -> ModelState:
        """Fetch a state by id, following merge aliases.

        Raises ``KeyError`` for ids that never existed.
        """
        return self._states[self.resolve(state_id)]

    def resolve(self, state_id: int) -> int:
        """Follow the alias chain of a (possibly merged-away) id."""
        seen = set()
        while state_id in self._aliases:
            if state_id in seen:  # pragma: no cover - defensive
                raise RuntimeError("alias cycle in StateSet")
            seen.add(state_id)
            state_id = self._aliases[state_id]
        return state_id

    def resolve_batch(self, state_ids: Sequence[int]) -> List[int]:
        """Resolve many ids at once, walking each alias chain only once.

        ``_sequence_model`` resolves thousands of window entries that hit
        the same handful of merged-away ids; memoising the chain walk
        (with path compression inside the memo) turns that from
        O(sequence × chain length) into O(sequence + chains).  The alias
        table itself is left untouched so checkpoints of identical runs
        stay byte-identical regardless of query history.
        """
        if not self._aliases:
            return list(state_ids)
        memo: Dict[int, int] = {}
        resolved: List[int] = []
        for state_id in state_ids:
            root = memo.get(state_id)
            if root is None:
                chain = []
                root = state_id
                while root in self._aliases:
                    if root in memo:
                        root = memo[root]
                        break
                    chain.append(root)
                    root = self._aliases[root]
                for link in chain:  # path compression, local to the memo
                    memo[link] = root
                memo[state_id] = root
            resolved.append(root)
        return resolved

    # -- the query cache --------------------------------------------------

    def _invalidate(self) -> None:
        self._matrix = None
        self._matrix_ids = None
        self._pair_min_bound = None

    def _ensure_cache(self) -> "tuple[np.ndarray, List[int]]":
        """The ``(M, d)`` vector matrix and its row ids, rebuilt if stale."""
        if self._matrix is None:
            ids = sorted(self._states.keys())
            self._matrix_ids = ids
            self._matrix = (
                np.vstack([self._states[i].vector for i in ids])
                if ids
                else np.zeros((0, self._dim or 0))
            )
        assert self._matrix_ids is not None
        return self._matrix, self._matrix_ids

    def update_vector(self, state_id: int, vector: np.ndarray) -> None:
        """Reassign a state's vector, keeping the query cache coherent.

        This is the only sanctioned way to move a state (Eq. 6 updates go
        through here); writing ``state.vector`` directly would leave the
        cached matrix stale.
        """
        state = self.get(state_id)
        old = state.vector
        state.vector = np.asarray(vector, dtype=float)
        if self._matrix is not None:
            assert self._matrix_ids is not None
            row = self._matrix_ids.index(state.state_id)
            self._matrix[row] = state.vector
        bound = self._pair_min_bound
        if bound is not None and not math.isinf(bound):
            # A move of magnitude δ shrinks any pairwise distance by at
            # most δ.  Over-subtract a relative slack so rounding in the
            # decay (or in the distances themselves) can never leave the
            # bound above what the next scan would measure.  A NaN move
            # poisons the bound, forcing a scan — the conservative side.
            # An ``inf`` bound (under two live states at the last scan —
            # no pair exists to shrink) survives any move untouched;
            # running it through the decay would compute inf - inf = NaN
            # and force a pointless rescan every window.
            # Python-float accumulation: the vectors are tiny (d = 2 for
            # the paper's deployments) and this runs once per Eq. 6
            # update, so small-array NumPy overhead would dominate.
            moved_sq = 0.0
            for a, b in zip(state.vector.tolist(), old.tolist()):
                step = a - b
                moved_sq += step * step
            delta = math.sqrt(moved_sq)
            self._pair_min_bound = (
                (bound - delta) - (abs(bound) + delta) * 1e-12
            )

    # -- structural operations ------------------------------------------

    def spawn(self, vector: np.ndarray) -> ModelState:
        """Create a new state at ``vector`` with a fresh id."""
        state = ModelState(state_id=self._next_id, vector=np.asarray(vector))
        self._states[state.state_id] = state
        self._next_id += 1
        if self._dim is None:
            self._dim = int(state.vector.shape[0])
        self._matrix = None
        self._matrix_ids = None
        # The newcomer's pair distances are unknown until the next scan.
        self._pair_min_bound = None
        return state

    def expel(self, state_id: int, alias_to: Optional[int] = None) -> None:
        """Remove a state *without* folding its vector into a survivor.

        Unlike :meth:`merge` — whose visit-weighted vector average would
        propagate a poisoned (non-finite) centroid into the survivor —
        ``expel`` simply drops the state, optionally aliasing its id to
        ``alias_to`` so HMM histories recorded under the expelled id
        keep resolving.  This is a supervisor repair action, not part of
        the paper's procedure.
        """
        state_id = self.resolve(state_id)
        if state_id not in self._states:
            raise KeyError(state_id)
        self._states.pop(state_id)
        if alias_to is not None:
            target = self.resolve(alias_to)
            if target not in self._states:
                raise KeyError(alias_to)
            self._aliases[state_id] = target
        self._matrix = None
        self._matrix_ids = None

    def alias_defects(self) -> List[str]:
        """Integrity problems in the alias table (empty when healthy).

        Detects cycles (a chain that revisits an id, which would hang
        :meth:`resolve`) and dangling chains (a chain ending at an id
        that is neither live nor further aliased).  Walks the raw table
        directly — never through :meth:`resolve` — so it terminates even
        on a corrupted table.
        """
        defects: List[str] = []
        for start in sorted(self._aliases):
            seen = {start}
            current = self._aliases[start]
            while current in self._aliases:
                if current in seen:
                    defects.append(f"alias cycle through id {current}")
                    break
                seen.add(current)
                current = self._aliases[current]
            else:
                if current not in self._states:
                    defects.append(
                        f"alias chain from id {start} dangles at id {current}"
                    )
        return defects

    def repair_aliases(self) -> List[str]:
        """Break alias cycles / re-point dangling chains (repair action).

        Every alias participating in a cycle or dangling chain is
        re-pointed at the smallest live state id (deterministic), or
        dropped when no live state exists.  Returns descriptions of the
        performed edits.
        """
        actions: List[str] = []
        fallback = min(self._states) if self._states else None
        for start in sorted(self._aliases):
            seen = {start}
            current = self._aliases[start]
            broken = False
            while current in self._aliases:
                if current in seen:
                    broken = True
                    break
                seen.add(current)
                current = self._aliases[current]
            if not broken and current in self._states:
                continue
            if fallback is None:
                del self._aliases[start]
                actions.append(f"dropped unresolvable alias {start}")
            else:
                self._aliases[start] = fallback
                actions.append(f"re-pointed alias {start} -> {fallback}")
        return actions

    def merge(self, keep_id: int, drop_id: int) -> ModelState:
        """Merge state ``drop_id`` into ``keep_id``.

        The survivor's vector becomes the visit-weighted mean of the two;
        the dropped id becomes an alias of the survivor.
        """
        keep_id = self.resolve(keep_id)
        drop_id = self.resolve(drop_id)
        if keep_id == drop_id:
            return self._states[keep_id]
        keep = self._states[keep_id]
        drop = self._states.pop(drop_id)
        total = max(keep.visits + drop.visits, 1)
        weight_keep = max(keep.visits, 1) / total if total else 0.5
        keep.vector = weight_keep * keep.vector + (1 - weight_keep) * drop.vector
        keep.visits += drop.visits
        self._aliases[drop_id] = keep_id
        self._matrix = None
        self._matrix_ids = None
        # The survivor teleported to the weighted mean; its new pair
        # distances are unbounded below, so the certified bound dies.
        self._pair_min_bound = None
        return keep

    # -- queries ----------------------------------------------------------

    def distances_to(self, points: np.ndarray) -> "tuple[np.ndarray, List[int]]":
        """``(N, M)`` Euclidean distances from ``points`` to live states.

        Returns the distance matrix and the state ids labelling its
        columns (id order).  This is the single kernel behind
        :meth:`nearest`, :meth:`assign_batch` and the clusterer's
        one-pass window update.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        # Huge-magnitude observations (~1e300, seen under adversarial
        # floods) legitimately saturate their squared distances to inf;
        # comparisons against thresholds and argmin stay well-defined.
        with np.errstate(over="ignore"):
            return self._distances_unguarded(points)

    def _distances_unguarded(
        self, points: np.ndarray
    ) -> "tuple[np.ndarray, List[int]]":
        """:meth:`distances_to` body for hot callers that already hold a
        float ``(N, d)`` matrix and ``np.errstate(over="ignore")``."""
        matrix, ids = self._ensure_cache()
        if not ids:
            return np.zeros((points.shape[0], 0)), ids
        # The kernel recycles its (N, M, d) difference tensor and
        # squared-norm buffer through this instance's private scratch
        # dict (the steady fused loop hits one shape for whole
        # stretches).  Only the returned distance matrix is freshly
        # allocated — callers hold on to it across further queries.
        return pairwise_distances(points, matrix, self._distance_scratch), ids

    def nearest(self, point: np.ndarray) -> Tuple[ModelState, float]:
        """The live state closest to ``point`` and its distance.

        Distance ties go to the lowest state id (``argmin`` returns the
        first minimum and columns are in id order, matching the scalar
        reference's strict-``<`` scan).  Raises ``ValueError`` on an
        empty set.
        """
        if not self._states:
            raise ValueError("StateSet is empty")
        distances, ids = self.distances_to(np.asarray(point, dtype=float))
        column = int(np.argmin(distances[0]))
        return self._states[ids[column]], float(distances[0, column])

    def assign_batch(self, points: np.ndarray) -> List[int]:
        """Nearest-state id for every row of ``points`` in one kernel.

        Ties break toward the lowest id, exactly like :meth:`nearest`.
        Raises ``ValueError`` on an empty set.
        """
        if not self._states:
            raise ValueError("StateSet is empty")
        distances, ids = self.distances_to(points)
        return [ids[column] for column in np.argmin(distances, axis=1)]

    def _nearest_scalar(self, point: np.ndarray) -> Tuple[ModelState, float]:
        """Scalar reference for :meth:`nearest` (kept for property tests)."""
        if not self._states:
            raise ValueError("StateSet is empty")
        point = np.asarray(point, dtype=float)
        best: Optional[ModelState] = None
        best_distance = float("inf")
        for state in self:
            distance = state.distance_to(point)
            if distance < best_distance:
                best = state
                best_distance = distance
        assert best is not None
        return best, best_distance

    def vectors(self) -> np.ndarray:
        """``(M, d)`` matrix of live state vectors, in id order.

        An emptied set still reports ``(0, d)`` once the dimensionality
        is known (mirrors the empty-window shape contract), so callers
        can ``vstack``/iterate without special-casing.
        """
        matrix, _ = self._ensure_cache()
        return matrix.copy()

    def closest_pair(self) -> Optional[Tuple[int, int, float]]:
        """The two closest live states and their distance (None if < 2).

        Ties break toward the lexicographically smallest id pair, like
        the scalar reference's ordered double loop.
        """
        with np.errstate(over="ignore"):  # inf distances are comparable
            return self._closest_pair_unguarded()

    def _closest_pair_unguarded(self) -> Optional[Tuple[int, int, float]]:
        """:meth:`closest_pair` body for hot callers that already hold
        ``np.errstate(over="ignore")``."""
        matrix, ids = self._ensure_cache()
        if len(ids) < 2:
            self._pair_min_bound = math.inf
            return None
        distances = _pair_matrix(matrix)
        i, j = divmod(int(np.argmin(distances)), len(ids))
        best = float(distances[i, j])
        # Shave a relative slack off the measured minimum so distance
        # rounding can never make a later scan measure below the bound.
        self._pair_min_bound = best - abs(best) * 1e-12
        return ids[i], ids[j], best

    def peek_decayed_pair_bound(
        self, deltas: Sequence[float]
    ) -> Optional[float]:
        """The pair bound as it would stand after moves of ``deltas``,
        one :meth:`update_vector` decay each in order (same slack),
        without committing it."""
        bound = self._pair_min_bound
        if bound is None or math.isinf(bound):
            # An infinite bound means no pair existed at the last scan; a
            # centroid move cannot create one, so it stays infinite (the
            # IEEE decay would produce inf - inf = NaN and fail
            # certification).
            return bound
        for delta in deltas:
            bound = (bound - delta) - (abs(bound) + delta) * 1e-12
        return bound

    def scanned_pair_bound(self, vectors: Sequence[Sequence[float]]) -> float:
        """The pair bound a :meth:`closest_pair` scan would leave if the
        live states (id order) sat at ``vectors``, without moving them.

        Same kernel and slack as the scan, so the value is bit-identical
        to the bound the scan would store; ``inf`` under two states.
        """
        if len(vectors) < 2:
            return math.inf
        best = float(_pair_matrix(np.array(vectors, dtype=float)).min())
        return best - abs(best) * 1e-12

    def commit_pair_bound(self, bound: Optional[float]) -> None:
        """Store a bound previously obtained from
        :meth:`peek_decayed_pair_bound` or :meth:`scanned_pair_bound`
        (stretch commit step)."""
        self._pair_min_bound = bound

    def apply_steady_motion(
        self, state_id: int, vector: Sequence[float], visit_increment: int
    ) -> None:
        """Write back a centroid that was evolved outside the set.

        The fused pipeline's stretch path advances a centroid's Eq. 6
        recurrence in Python floats (bit-identical arithmetic) and folds
        the result back here on exit.  The caller has already
        committed the pair bound of every intermediate move, so this
        only refreshes the vector caches and the visit count.
        """
        state = self.get(state_id)
        state.vector = np.asarray(vector, dtype=float)
        if self._matrix is not None:
            assert self._matrix_ids is not None
            row = self._matrix_ids.index(state.state_id)
            self._matrix[row] = state.vector
        state.visits += visit_increment

    def pair_distance_at_least(self, threshold: float) -> bool:
        """True when the certified bound proves no pair is closer than
        ``threshold`` — i.e. a :meth:`closest_pair` scan could not find a
        mergeable pair.  ``False`` whenever the bound is unknown (or has
        been poisoned to NaN by a non-finite move), so callers fall back
        to an actual scan.
        """
        bound = self._pair_min_bound
        return bound is not None and bound >= threshold

    def _closest_pair_scalar(self) -> Optional[Tuple[int, int, float]]:
        """Scalar reference for :meth:`closest_pair` (property tests)."""
        states = list(self)
        if len(states) < 2:
            return None
        best: Optional[Tuple[int, int, float]] = None
        for i, first in enumerate(states):
            for second in states[i + 1 :]:
                distance = first.distance_to(second.vector)
                if best is None or distance < best[2]:
                    best = (first.state_id, second.state_id, distance)
        return best

    def labels(self) -> Dict[int, str]:
        """state_id -> ``(t,h)`` display label, for reports."""
        return {state.state_id: state.label() for state in self}

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of the full set (states, aliases, id counter)."""
        return {
            "next_id": self._next_id,
            "states": [
                {
                    "id": state.state_id,
                    "vector": [float(x) for x in state.vector],
                    "visits": state.visits,
                }
                for state in self
            ],
            "aliases": sorted(
                [dropped, kept] for dropped, kept in self._aliases.items()
            ),
        }

    @classmethod
    def from_state_dict(cls, payload: Dict[str, object]) -> "StateSet":
        """Rebuild a set from :meth:`state_dict` output (inverse operation)."""
        restored = cls()
        for entry in payload["states"]:
            state = ModelState(
                state_id=int(entry["id"]),
                vector=np.asarray(entry["vector"], dtype=float),
                visits=int(entry["visits"]),
            )
            restored._states[state.state_id] = state
            if restored._dim is None:
                restored._dim = int(state.vector.shape[0])
        restored._aliases = {
            int(dropped): int(kept) for dropped, kept in payload["aliases"]
        }
        restored._next_id = int(payload["next_id"])
        return restored
