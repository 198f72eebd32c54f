"""Unit tests for repro.core.clustering (Model State Identification)."""

import numpy as np
import pytest

from repro.core.clustering import OnlineStateClusterer


def clusterer(**kwargs) -> OnlineStateClusterer:
    defaults = dict(
        initial_vectors=[np.array([0.0, 0.0]), np.array([20.0, 0.0])],
        alpha=0.10,
        spawn_threshold=6.0,
        merge_threshold=3.0,
    )
    defaults.update(kwargs)
    return OnlineStateClusterer(**defaults)


class TestConstruction:
    def test_requires_valid_learning_factor(self):
        with pytest.raises(ValueError):
            clusterer(alpha=0.0)
        with pytest.raises(ValueError):
            clusterer(alpha=1.0)

    def test_requires_merge_below_spawn(self):
        with pytest.raises(ValueError):
            clusterer(spawn_threshold=3.0, merge_threshold=3.0)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(merge_threshold=float("nan")),
            dict(spawn_threshold=float("nan")),
            dict(spawn_threshold=float("inf")),
            dict(merge_threshold=-1.0),
        ],
    )
    def test_rejects_non_finite_or_nonpositive_thresholds(self, knobs):
        # A NaN threshold fails every comparison: a NaN merge threshold
        # would merge states 50 apart, a NaN spawn threshold would never
        # spawn.
        with pytest.raises(ValueError, match="thresholds must be positive"):
            clusterer(**knobs)

    def test_requires_initial_states(self):
        with pytest.raises(ValueError):
            OnlineStateClusterer(initial_vectors=[])


class TestAssignment:
    def test_assign_returns_nearest_state_id(self):
        c = clusterer()
        assert c.assign(np.array([1.0, 0.0])) == 0
        assert c.assign(np.array([19.0, 0.0])) == 1


class TestEq6Update:
    def test_state_moves_toward_group_mean(self):
        c = clusterer(alpha=0.5)
        c.update(np.array([[2.0, 0.0], [2.0, 0.0]]))
        # s0 = 0.5 * (0,0) + 0.5 * (2,0) = (1, 0)
        assert np.allclose(c.state_vector(0), [1.0, 0.0])

    def test_unvisited_state_unchanged(self):
        c = clusterer(alpha=0.5)
        c.update(np.array([[2.0, 0.0]]))
        assert np.allclose(c.state_vector(1), [20.0, 0.0])

    def test_visits_incremented_once_per_window(self):
        c = clusterer()
        c.update(np.array([[0.5, 0.0], [0.2, 0.0], [19.0, 0.0]]))
        assert c.states.get(0).visits == 1
        assert c.states.get(1).visits == 1

    def test_empty_update_is_noop(self):
        c = clusterer()
        update = c.update(np.zeros((0, 2)))
        assert update.assignments == []
        assert c.n_states == 2


class TestSpawn:
    def test_far_observation_spawns_state(self):
        c = clusterer()
        update = c.update(np.array([[50.0, 50.0]]))
        assert len(update.spawned) == 1
        assert c.n_states == 3
        spawned = c.states.get(update.spawned[0])
        assert np.allclose(spawned.vector, [50.0, 50.0], atol=5.0)

    def test_near_observation_does_not_spawn(self):
        c = clusterer()
        update = c.update(np.array([[1.0, 1.0]]))
        assert update.spawned == []

    def test_max_states_cap_respected(self):
        c = clusterer(max_states=3)
        c.update(np.array([[50.0, 50.0]]))
        update = c.update(np.array([[-50.0, -50.0]]))
        assert update.spawned == []
        assert c.n_states == 3

    def test_maybe_spawn_far_point(self):
        c = clusterer()
        state_id = c.maybe_spawn(np.array([100.0, 0.0]))
        assert state_id is not None
        assert c.n_states == 3

    def test_maybe_spawn_near_point_returns_none(self):
        c = clusterer()
        assert c.maybe_spawn(np.array([1.0, 0.0])) is None


class TestMerge:
    def test_drifting_states_merge(self):
        c = clusterer(
            initial_vectors=[np.array([0.0, 0.0]), np.array([4.0, 0.0])],
            alpha=0.9,
            spawn_threshold=20.0,
            merge_threshold=3.0,
        )
        # Observations between the two states pull them together.
        update = c.update(np.array([[2.0, 0.0], [2.1, 0.0]]))
        assert update.merged
        assert c.n_states == 1

    def test_assignments_resolved_after_merge(self):
        c = clusterer(
            initial_vectors=[np.array([0.0, 0.0]), np.array([4.0, 0.0])],
            alpha=0.9,
            spawn_threshold=20.0,
            merge_threshold=3.0,
        )
        update = c.update(np.array([[2.0, 0.0], [2.1, 0.0]]))
        # All assignments must reference the surviving state.
        survivor = c.states.state_ids[0]
        assert all(a == survivor for a in update.assignments)

    def test_resolve_follows_merges(self):
        c = clusterer(
            initial_vectors=[np.array([0.0, 0.0]), np.array([4.0, 0.0])],
            alpha=0.9,
            spawn_threshold=20.0,
            merge_threshold=3.0,
        )
        c.update(np.array([[2.0, 0.0], [2.1, 0.0]]))
        assert c.resolve(0) == c.resolve(1)


class TestTracking:
    def test_follows_slowly_moving_environment(self):
        c = OnlineStateClusterer(
            initial_vectors=[np.array([0.0, 0.0])],
            alpha=0.3,
            spawn_threshold=10.0,
            merge_threshold=3.0,
        )
        # Environment drifts from 0 to 5; the single state should follow.
        for step in range(50):
            value = 5.0 * min(step / 25.0, 1.0)
            c.update(np.array([[value, 0.0]] * 3))
        assert np.allclose(c.state_vector(0), [5.0, 0.0], atol=0.5)

    def test_state_labels(self):
        c = clusterer()
        labels = c.state_labels()
        assert labels[0] == "(0,0)"


class TestStateDictValidation:
    def test_round_trip(self):
        c = clusterer()
        c.update(np.array([[1.0, 0.0], [21.0, 0.0]]))
        rebuilt = OnlineStateClusterer.from_state_dict(c.state_dict())
        assert rebuilt.state_dict() == c.state_dict()

    def test_rejects_max_states_below_two(self):
        payload = clusterer().state_dict()
        payload["max_states"] = 1
        with pytest.raises(ValueError, match="max_states=1"):
            OnlineStateClusterer.from_state_dict(payload)

    def test_rejects_disagreeing_centroid_dimensions(self):
        payload = clusterer().state_dict()
        payload["states"]["states"][0]["vector"] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="disagreeing centroid"):
            OnlineStateClusterer.from_state_dict(payload)

    def test_rejects_more_states_than_max_states(self):
        payload = clusterer().state_dict()
        payload["max_states"] = 2
        payload["states"]["states"].append(
            dict(payload["states"]["states"][0], id=99)
        )
        with pytest.raises(ValueError, match="more than"):
            OnlineStateClusterer.from_state_dict(payload)
