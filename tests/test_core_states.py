"""Unit tests for repro.core.states (ModelState and StateSet)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.states import BOTTOM_STATE_ID, ModelState, StateSet


class TestModelState:
    def test_distance(self):
        state = ModelState(state_id=0, vector=np.array([3.0, 4.0]))
        assert state.distance_to(np.array([0.0, 0.0])) == pytest.approx(5.0)

    def test_label_format(self):
        state = ModelState(state_id=0, vector=np.array([12.4, 93.6]))
        assert state.label() == "(12,94)"

    def test_vector_is_copied(self):
        source = np.array([1.0, 2.0])
        state = ModelState(state_id=0, vector=source)
        source[0] = 99.0
        assert state.vector[0] == 1.0

    def test_rejects_empty_vector(self):
        with pytest.raises(ValueError):
            ModelState(state_id=0, vector=np.array([]))

    def test_bottom_sentinel_is_negative(self):
        assert BOTTOM_STATE_ID < 0


class TestStateSet:
    def test_spawn_assigns_fresh_ids(self):
        states = StateSet()
        a = states.spawn(np.array([1.0, 1.0]))
        b = states.spawn(np.array([2.0, 2.0]))
        assert a.state_id != b.state_id
        assert len(states) == 2

    def test_initial_vectors(self):
        states = StateSet([np.array([1.0]), np.array([2.0])])
        assert len(states) == 2
        assert states.state_ids == [0, 1]

    def test_nearest(self):
        states = StateSet([np.array([0.0, 0.0]), np.array([10.0, 0.0])])
        nearest, distance = states.nearest(np.array([7.0, 0.0]))
        assert nearest.state_id == 1
        assert distance == pytest.approx(3.0)

    def test_nearest_on_empty_raises(self):
        with pytest.raises(ValueError):
            StateSet().nearest(np.array([0.0]))

    def test_merge_aliases_dropped_id(self):
        states = StateSet([np.array([0.0]), np.array([1.0])])
        states.merge(keep_id=0, drop_id=1)
        assert len(states) == 1
        assert states.resolve(1) == 0
        assert states.get(1).state_id == 0

    def test_merge_weights_by_visits(self):
        states = StateSet([np.array([0.0]), np.array([10.0])])
        states.get(0).visits = 3
        states.get(1).visits = 1
        merged = states.merge(0, 1)
        assert merged.vector[0] == pytest.approx(2.5)
        assert merged.visits == 4

    def test_merge_is_idempotent_on_same_id(self):
        states = StateSet([np.array([0.0])])
        merged = states.merge(0, 0)
        assert merged.state_id == 0
        assert len(states) == 1

    def test_alias_chains_resolve(self):
        states = StateSet([np.array([0.0]), np.array([1.0]), np.array([2.0])])
        states.merge(1, 2)
        states.merge(0, 1)
        assert states.resolve(2) == 0

    def test_spawned_after_merge_gets_new_id(self):
        states = StateSet([np.array([0.0]), np.array([1.0])])
        states.merge(0, 1)
        fresh = states.spawn(np.array([5.0]))
        assert fresh.state_id == 2

    def test_closest_pair(self):
        states = StateSet(
            [np.array([0.0]), np.array([1.0]), np.array([10.0])]
        )
        pair = states.closest_pair()
        assert pair is not None
        assert set(pair[:2]) == {0, 1}
        assert pair[2] == pytest.approx(1.0)

    def test_closest_pair_needs_two_states(self):
        assert StateSet([np.array([0.0])]).closest_pair() is None

    def test_vectors_matrix(self):
        states = StateSet([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert states.vectors().shape == (2, 2)

    def test_contains_follows_aliases(self):
        states = StateSet([np.array([0.0]), np.array([1.0])])
        states.merge(0, 1)
        assert 1 in states

    def test_labels(self):
        states = StateSet([np.array([12.0, 94.0])])
        assert states.labels() == {0: "(12,94)"}


# -- closest_pair through every structural operation -----------------------

lattice_points = st.tuples(st.integers(-20, 20), st.integers(-20, 20))

structural_ops = st.lists(
    st.one_of(
        st.tuples(st.just("spawn"), lattice_points),
        st.tuples(st.just("update"), st.integers(0, 30), lattice_points),
        st.tuples(st.just("merge"), st.integers(0, 30), st.integers(0, 30)),
        st.tuples(st.just("expel"), st.integers(0, 30), st.integers(-1, 30)),
        st.tuples(
            st.just("steady"),
            st.integers(0, 30),
            lattice_points,
            st.integers(0, 3),
        ),
    ),
    min_size=1,
    max_size=40,
)


def _move_length(old, new) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(old, new)))


class TestClosestPairThroughStructuralOps:
    """``closest_pair`` and the certified pair bound stay coherent with
    the scalar reference across random spawn / Eq. 6 move / merge /
    expel / stretch write-back sequences."""

    @staticmethod
    def _apply(states: StateSet, op) -> None:
        kind = op[0]
        ids = states.state_ids
        if kind == "spawn":
            states.spawn(np.array(op[1], dtype=float))
            return
        if not ids:
            return
        target = ids[op[1] % len(ids)]
        if kind == "update":
            states.update_vector(target, np.array(op[2], dtype=float))
        elif kind == "merge":
            states.merge(target, ids[op[2] % len(ids)])
        elif kind == "expel":
            others = [i for i in ids if i != target]
            alias = None if op[2] < 0 or not others else others[op[2] % len(others)]
            states.expel(target, alias_to=alias)
        else:
            # The stretch contract: the caller commits the decayed bound
            # of the move before writing the centroid back.
            old = states.get(target).vector.tolist()
            delta = _move_length(old, op[2])
            states.commit_pair_bound(states.peek_decayed_pair_bound([delta]))
            states.apply_steady_motion(target, op[2], op[3])

    @given(
        initial=st.lists(lattice_points, min_size=0, max_size=6),
        ops=structural_ops,
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_reference(self, initial, ops):
        states = StateSet([np.array(p, dtype=float) for p in initial])
        states.closest_pair()
        for op in ops:
            self._apply(states, op)
            reference = states._closest_pair_scalar()
            # The bound as it stands after the operation (decayed by
            # moves, voided by spawns and merges) must never certify a
            # distance above the scalar minimum.
            if reference is not None:
                above = reference[2] * (1 + 1e-9) + 1e-9
                assert not states.pair_distance_at_least(above), op
            pair = states.closest_pair()
            vectors = states.vectors()
            if pair is None or np.array_equal(vectors, np.round(vectors)):
                # On the integer lattice both kernels are exact, so
                # distances and tie-breaks agree bit for bit.
                assert pair == reference, op
            else:
                # Visit-weighted merges leave the lattice, where the
                # scalar reference's ``np.linalg.norm`` may round
                # differently from the matrix kernel in the last bit.
                assert reference is not None
                assert pair[2] == pytest.approx(reference[2], rel=1e-12)
                assert states.get(pair[0]).distance_to(
                    states.get(pair[1]).vector
                ) == pytest.approx(reference[2], rel=1e-12)
            # A scan leaves a bound that certifies the found minimum.
            if pair is not None:
                assert states.pair_distance_at_least(pair[2] * (1 - 1e-9))
