"""Online statistical clustering — the Model State Identification module.

Implements the paper's §3.1 procedure:

* Eq. 5: group the window's observations by nearest state,
* Eq. 6: move each non-empty state toward its group mean with learning
  factor α,
* spawn a new state when an observation is farther than a threshold from
  every existing state,
* merge two states when they drift closer than a threshold.

The module must "not split correct data into a number of small-size
clusters" and should keep M small; the spawn/merge thresholds are the
tuning knobs the paper alludes to but does not number — DESIGN.md §6
records our defaults.

:meth:`OnlineStateClusterer.update` is the pipeline's hot path and runs
as a *one-pass* kernel: a single ``(N, M)`` distance matrix (from
``StateSet.distances_to``) feeds the spawn checks and the Eq. 3
assignments, the Eq. 6 group update is applied through the cached state
matrix, and — when the caller supplies the window's overall mean — the
final per-sensor assignments and the observable state are computed in
one batched query over the post-update state set, so Eqs. 2–4 never
re-scan the states.  Every decision (tie-breaks, spawn/merge order,
update arithmetic) is bit-identical to the scalar reference
implementation; ``tests/test_perf_kernels.py`` pins the equivalence.
The fused pipeline's full step and its per-window reference oracle make
the same ``update(observations, overall_mean=...)`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .states import ModelState, StateSet


@dataclass(frozen=True)
class ClusterUpdate:
    """What one window's clustering pass did.

    Attributes
    ----------
    assignments:
        Row index in the window's observation matrix -> state id (Eq. 3
        applied with the *pre-update* state positions).
    spawned:
        Ids of states created for too-far observations.
    merged:
        ``(kept_id, dropped_id)`` pairs merged after the α update.
    sensor_assignments:
        Row index -> nearest state id over the *final* (post-Eq. 6,
        post-merge, post-mean-spawn) state set — exactly what Eq. 3
        yields when :func:`~repro.core.identification.identify_window`
        runs after the update, so the pipeline can thread these through
        instead of re-scanning the state set per sensor.
    observable_state:
        Eq. 2's ``o_i`` — nearest state to the window's overall mean
        over the final state set.  ``None`` when no overall mean was
        supplied to :meth:`OnlineStateClusterer.update`.
    mean_spawned:
        Id of the state spawned at the overall mean (coordinated attacks
        can pull the network-wide mean off every sensor's position), or
        ``None``.
    """

    assignments: List[int]
    spawned: List[int]
    merged: List["tuple[int, int]"]
    sensor_assignments: List[int] = field(default_factory=list)
    observable_state: Optional[int] = None
    mean_spawned: Optional[int] = None


class OnlineStateClusterer:
    """Maintains the model state set across observation windows.

    Parameters
    ----------
    initial_vectors:
        Initial state estimates (Table 1 uses 6, from offline clustering
        of historical data; random initialisation also works, per the
        paper's footnote 5).
    alpha:
        Eq. 6 learning factor in (0, 1); Table 1 value 0.10.
    spawn_threshold:
        An observation farther than this from every state spawns a new
        state at its position.
    merge_threshold:
        Two states closer than this merge into one.
    max_states:
        Safety valve: never grow beyond this many states (the paper
        warns against "too many model states" breaking the majority
        assumption).
    """

    def __init__(
        self,
        initial_vectors: Sequence[np.ndarray],
        alpha: float = 0.10,
        spawn_threshold: float = 6.0,
        merge_threshold: float = 3.0,
        max_states: int = 24,
    ):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not all(
            math.isfinite(threshold) and threshold > 0
            for threshold in (spawn_threshold, merge_threshold)
        ):
            raise ValueError("thresholds must be positive")
        if merge_threshold >= spawn_threshold:
            raise ValueError("merge_threshold must be below spawn_threshold")
        if max_states < 2:
            raise ValueError("max_states must be at least 2")
        self.alpha = alpha
        self.spawn_threshold = spawn_threshold
        self.merge_threshold = merge_threshold
        self.max_states = max_states
        self.states = StateSet(initial_vectors)
        if len(self.states) == 0:
            raise ValueError("need at least one initial state")

    # -- queries ---------------------------------------------------------

    def assign(self, point: np.ndarray) -> int:
        """Eq. 3: id of the nearest state to ``point`` (no side effects).

        Raises
        ------
        ValueError
            If ``point`` contains NaN/Inf: a non-finite reading has no
            meaningful nearest state and must never reach the clusterer
            (the collector quarantines such messages; the pipeline drops
            any that slip through).
        """
        point = np.asarray(point, dtype=float)
        if not np.all(np.isfinite(point)):
            raise ValueError("cannot assign a non-finite observation to a state")
        state, _ = self.states.nearest(point)
        return state.state_id

    def assign_batch(self, points: np.ndarray) -> List[int]:
        """Eq. 3 for every row of ``points`` in one batched kernel."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise ValueError("cannot assign a non-finite observation to a state")
        return self.states.assign_batch(points)

    def resolve(self, state_id: int) -> int:
        """Follow merge aliases for an id issued in an earlier window."""
        return self.states.resolve(state_id)

    def maybe_spawn(self, point: np.ndarray) -> Optional[int]:
        """Spawn a state at ``point`` if no existing state explains it.

        Used for the window's *overall mean* (Eq. 2's input): coordinated
        attacks can pull the network-wide mean to a position no
        individual sensor reports, and the state set must be able to
        describe that observable condition ("the module should expand the
        current set of states when appropriate", §3.1).
        """
        point = np.asarray(point, dtype=float)
        if not np.all(np.isfinite(point)):
            raise ValueError("cannot spawn a state at a non-finite position")
        _, distance = self.states.nearest(point)
        if distance > self.spawn_threshold and len(self.states) < self.max_states:
            return self.states.spawn(point).state_id
        return None

    # -- the per-window update -------------------------------------------

    def update(
        self,
        observations: np.ndarray,
        overall_mean: Optional[np.ndarray] = None,
    ) -> ClusterUpdate:
        """Run one full clustering pass over a window's observations.

        Parameters
        ----------
        observations:
            ``(N, d)`` matrix; one row per observation source.
        overall_mean:
            The window's overall mean (Eq. 2's input).  When given, the
            pass also performs the mean-spawn check and returns the final
            per-row assignments plus the observable state computed over
            the post-update state set, replicating exactly what a
            subsequent ``maybe_spawn`` + ``identify_window`` pair used to
            do in separate scans.

        Returns
        -------
        ClusterUpdate
            Assignments (by pre-update positions), spawned and merged
            state ids, and the post-update identification inputs.
        """
        observations = np.atleast_2d(np.asarray(observations, dtype=float))
        if observations.size == 0:
            return ClusterUpdate(assignments=[], spawned=[], merged=[])
        if not np.all(np.isfinite(observations)):
            # A single NaN/Inf row would poison every centroid it touches
            # through the Eq. 6 convex update; reject the window outright.
            raise ValueError("observations contain non-finite values")
        # One fp-state save covers every distance kernel of the pass
        # (huge-magnitude observations legitimately saturate to inf; a
        # saturated centroid's self-distance is inf - inf = NaN on the
        # pair-matrix diagonal, which the closest-pair scan masks).
        with np.errstate(over="ignore", invalid="ignore"):
            return self._update_inner(observations, overall_mean)

    def _update_inner(
        self, observations: np.ndarray, overall_mean: Optional[np.ndarray]
    ) -> ClusterUpdate:
        # One (N, M) distance matrix against the pre-window states feeds
        # both the sequential spawn checks and the Eq. 3 assignments.
        base_distances, base_ids = self.states._distances_unguarded(observations)
        spawned = self._spawn_far_observations(observations, base_distances)
        assignments = self._assign_with_spawned(
            observations, base_distances, base_ids, spawned
        )
        self._apply_learning_update(observations, assignments)
        merged = self._merge_close_states()

        mean_spawned: Optional[int] = None
        sensor_assignments: List[int] = []
        observable_state: Optional[int] = None
        if overall_mean is not None:
            # Fused mean-spawn check + final Eq. 2/3 pass: one batched
            # ``(N+1, M)`` query over the settled state set feeds both
            # (``maybe_spawn`` + ``assign_batch`` used to scan twice).
            # A mean spawn appends its one distance column — same
            # subtract/square/sum as a full recompute, and the new id is
            # the largest so column order (and the argmin tie-break)
            # matches a rebuilt matrix bit-for-bit.
            overall_mean = np.asarray(overall_mean, dtype=float)
            if not np.all(np.isfinite(overall_mean)):
                raise ValueError("cannot spawn a state at a non-finite position")
            points = np.vstack([observations, overall_mean])
            distances, ids = self.states._distances_unguarded(points)
            columns = np.argmin(distances, axis=1)
            # The mean's distance to its nearest state IS the entry its
            # argmin picked, so no separate ``.min()`` reduction runs.
            mean_distance = float(distances[-1, columns[-1]])
            if (
                mean_distance > self.spawn_threshold
                and len(self.states) < self.max_states
            ):
                state = self.states.spawn(points[-1])
                mean_spawned = state.state_id
                diff = points - state.vector
                extra = np.sqrt(np.einsum("nd,nd->n", diff, diff))
                distances = np.hstack([distances, extra[:, None]])
                ids = list(ids) + [mean_spawned]
                columns = np.argmin(distances, axis=1)
            final = [ids[column] for column in columns]
            sensor_assignments = final[:-1]
            observable_state = final[-1]
        else:
            sensor_assignments = self.states.assign_batch(observations)

        return ClusterUpdate(
            assignments=self.states.resolve_batch(assignments),
            spawned=spawned,
            merged=merged,
            sensor_assignments=sensor_assignments,
            observable_state=observable_state,
            mean_spawned=mean_spawned,
        )

    def _spawn_far_observations(
        self, observations: np.ndarray, base_distances: np.ndarray
    ) -> List[int]:
        """Create states for observations no existing state explains.

        ``base_distances`` is the precomputed ``(N, M)`` matrix against
        the pre-window states; only distances to states spawned *during*
        this loop (rare) are computed incrementally, preserving the
        scalar path's row-by-row semantics where an early spawn can
        explain a later observation.
        """
        spawned: List[int] = []
        spawned_vectors: List[np.ndarray] = []
        min_base = (
            base_distances.min(axis=1)
            if base_distances.shape[1]
            else np.full(observations.shape[0], np.inf)
        )
        if not float(min_base.max()) > self.spawn_threshold:
            # No observation clears the threshold against the pre-window
            # states, so the sequential scan cannot spawn (states created
            # mid-loop only ever *shrink* later rows' distances).
            return spawned
        for row_index, row in enumerate(observations):
            distance = float(min_base[row_index])
            if spawned_vectors:
                with np.errstate(over="ignore"):  # inf distances compare fine
                    diff = np.vstack(spawned_vectors) - row
                    distance = min(
                        distance,
                        float(np.sqrt(np.einsum("md,md->m", diff, diff)).min()),
                    )
            if distance > self.spawn_threshold and len(self.states) < self.max_states:
                state = self.states.spawn(row)
                spawned.append(state.state_id)
                spawned_vectors.append(state.vector)
        return spawned

    def _assign_with_spawned(
        self,
        observations: np.ndarray,
        base_distances: np.ndarray,
        base_ids: List[int],
        spawned: List[int],
    ) -> List[int]:
        """Eq. 3 assignments over pre-update positions, reusing the base
        distance matrix and appending columns for freshly spawned states.

        Spawned ids are strictly larger than every pre-existing id, so
        horizontally stacking their distance columns keeps the matrix in
        id order and ``argmin``'s first-minimum tie-break identical to
        the scalar scan.
        """
        if not spawned:
            columns, ids = base_distances, base_ids
        else:
            spawned_matrix = np.vstack(
                [self.states.get(state_id).vector for state_id in spawned]
            )
            with np.errstate(over="ignore"):  # inf distances compare fine
                diff = observations[:, None, :] - spawned_matrix[None, :, :]
                spawned_distances = np.sqrt(
                    np.einsum("nmd,nmd->nm", diff, diff)
                )
            columns = np.hstack([base_distances, spawned_distances])
            ids = list(base_ids) + list(spawned)
        return [ids[column] for column in np.argmin(columns, axis=1)]

    def _apply_learning_update(
        self, observations: np.ndarray, assignments: List[int]
    ) -> None:
        """Eq. 5 + Eq. 6: move each visited state toward its group mean.

        Groups are visited in first-occurrence order of ``assignments``;
        each move decays the state set's certified pair bound in that
        order.
        """
        first = assignments[0]
        if assignments.count(first) == len(assignments):
            # Healthy-window fast path: every row landed in one group, so
            # the group mean is the mean of the whole matrix (bit-equal
            # to the mean of its copy) and only one centroid moves.
            state = self.states.get(first)
            group_mean = np.mean(observations, axis=0)
            self.states.update_vector(
                first,
                (1.0 - self.alpha) * state.vector + self.alpha * group_mean,
            )
            state.visits += 1
            return
        groups: Dict[int, List[int]] = {}
        for row_index, state_id in enumerate(assignments):
            groups.setdefault(state_id, []).append(row_index)
        for state_id, row_indices in groups.items():
            state = self.states.get(state_id)
            group_mean = np.mean(observations[row_indices], axis=0)
            self.states.update_vector(
                state_id,
                (1.0 - self.alpha) * state.vector + self.alpha * group_mean,
            )
            state.visits += 1

    def _merge_close_states(self) -> List["tuple[int, int]"]:
        """Repeatedly merge the closest pair while it is under threshold."""
        merged: List["tuple[int, int]"] = []
        while True:
            if self.states.pair_distance_at_least(self.merge_threshold):
                # The certified bound proves a scan could not find a pair
                # under threshold — no merge would happen, no state would
                # change, so skipping the scan leaves behaviour identical.
                break
            # Callers hold np.errstate(over="ignore") via ``update``.
            pair = self.states._closest_pair_unguarded()
            if pair is None or pair[2] >= self.merge_threshold:
                break
            first_id, second_id, _ = pair
            first = self.states.get(first_id)
            second = self.states.get(second_id)
            # Keep the better-established state so ids referenced by the
            # HMMs stay live as long as possible.
            if first.visits >= second.visits:
                keep, drop = first_id, second_id
            else:
                keep, drop = second_id, first_id
            self.states.merge(keep, drop)
            merged.append((keep, drop))
        return merged

    def force_merge_to(self, target: int) -> List["tuple[int, int]"]:
        """Repair action: merge closest pairs until at most ``target`` states.

        Unlike :meth:`_merge_close_states` this ignores the merge
        threshold — it is the supervisor's bounded response to an
        exploded state set (``n_states > max_states`` should be
        unreachable, but a corrupted restore or a future bug must not
        leave the majority assumption permanently broken).
        """
        if target < 1:
            raise ValueError("target must be at least 1")
        merged: List["tuple[int, int]"] = []
        while len(self.states) > target:
            pair = self.states.closest_pair()
            if pair is None:
                break
            first = self.states.get(pair[0])
            second = self.states.get(pair[1])
            if first.visits >= second.visits:
                keep, drop = first.state_id, second.state_id
            else:
                keep, drop = second.state_id, first.state_id
            self.states.merge(keep, drop)
            merged.append((keep, drop))
        return merged

    # -- convenience -------------------------------------------------------

    @property
    def n_states(self) -> int:
        """Current number of live model states M."""
        return len(self.states)

    def state_vector(self, state_id: int) -> np.ndarray:
        """Current attribute estimate of a state (following aliases)."""
        return self.states.get(state_id).vector.copy()

    def state_labels(self) -> Dict[int, str]:
        """state_id -> display label for reports."""
        return self.states.labels()

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: tuning knobs plus the full state set."""
        return {
            "alpha": self.alpha,
            "spawn_threshold": self.spawn_threshold,
            "merge_threshold": self.merge_threshold,
            "max_states": self.max_states,
            "states": self.states.state_dict(),
        }

    @classmethod
    def from_state_dict(cls, payload: Dict[str, object]) -> "OnlineStateClusterer":
        """Rebuild a clusterer from :meth:`state_dict` output.

        Applies the constructor's validation to the payload rather than
        silently constructing an inconsistent clusterer: ``max_states``
        below 2 and state sets whose centroid dimensions disagree are
        rejected with a clear error.
        """
        max_states = int(payload["max_states"])
        if max_states < 2:
            raise ValueError(
                f"clusterer payload has max_states={max_states}; "
                "max_states must be at least 2"
            )
        states = StateSet.from_state_dict(payload["states"])
        dims = {int(state.vector.shape[0]) for state in states}
        if len(dims) > 1:
            raise ValueError(
                "clusterer payload has states of disagreeing centroid "
                f"dimensions {sorted(dims)}"
            )
        if len(states) > max_states:
            raise ValueError(
                f"clusterer payload holds {len(states)} states, more than "
                f"its max_states={max_states}"
            )
        clusterer = cls(
            initial_vectors=[np.zeros(1)],
            alpha=float(payload["alpha"]),
            spawn_threshold=float(payload["spawn_threshold"]),
            merge_threshold=float(payload["merge_threshold"]),
            max_states=max_states,
        )
        clusterer.states = states
        return clusterer
