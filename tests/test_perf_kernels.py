"""Bit-identity of the vectorized hot kernels vs scalar references.

The vectorisation work (StateSet distance kernels, one-pass clusterer
update, in-place HMM rows, vectorized ``denoised``) promises *exact*
equality with the scalar implementations it replaced — same floats, same
tie-breaks, same spawn/merge decisions.  These tests drive hundreds of
randomized windows through both paths and assert equality with no
tolerance.  The kernels' reusable scratch buffers must stay private to
their owner, which ``TestScratchIsolation`` pins.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.core.clustering import OnlineStateClusterer
from repro.core.online_hmm import EmissionMatrix, OnlineHMM
from repro.core.states import StateSet
from repro.traces import GDITraceConfig, generate_gdi_trace_columnar
from repro.traces.windows import window_trace_columnar


# ---------------------------------------------------------------------------
# Scalar reference implementations (seed-commit semantics)
# ---------------------------------------------------------------------------


class ScalarReferenceClusterer:
    """The pre-vectorisation clusterer, reconstructed per-row.

    Uses ``StateSet._nearest_scalar`` / ``_closest_pair_scalar`` and
    direct vector writes, exactly like the seed commit: spawn checks one
    row at a time, per-row Eq. 3 assignment scans, ``np.vstack``-based
    group means, then the mean-spawn and final per-sensor scans the
    pipeline used to run as separate passes.
    """

    def __init__(self, initial_vectors, alpha, spawn_threshold, merge_threshold,
                 max_states=24):
        self.alpha = alpha
        self.spawn_threshold = spawn_threshold
        self.merge_threshold = merge_threshold
        self.max_states = max_states
        self.states = StateSet(initial_vectors)

    def update(self, observations, overall_mean):
        observations = np.atleast_2d(np.asarray(observations, dtype=float))
        spawned = []
        for row in observations:
            _, distance = self.states._nearest_scalar(row)
            if distance > self.spawn_threshold and len(self.states) < self.max_states:
                spawned.append(self.states.spawn(row).state_id)
        assignments = [
            self.states._nearest_scalar(row)[0].state_id for row in observations
        ]
        groups = {}
        for row, state_id in zip(observations, assignments):
            groups.setdefault(state_id, []).append(row)
        for state_id, members in groups.items():
            state = self.states.get(state_id)
            group_mean = np.mean(np.vstack(members), axis=0)
            state.vector = (
                (1.0 - self.alpha) * state.vector + self.alpha * group_mean
            )
            state.visits += 1
        # Direct vector writes are exactly what the seed did — and exactly
        # what desyncs the vectorized query cache (the reason
        # ``update_vector`` exists).  Drop the cache so ``vectors()``
        # reads the true positions when the test compares sets.
        self.states._invalidate()
        merged = []
        while True:
            pair = self.states._closest_pair_scalar()
            if pair is None or pair[2] >= self.merge_threshold:
                break
            first_id, second_id, _ = pair
            first = self.states.get(first_id)
            second = self.states.get(second_id)
            if first.visits >= second.visits:
                keep, drop = first_id, second_id
            else:
                keep, drop = second_id, first_id
            self.states.merge(keep, drop)
            merged.append((keep, drop))
        # The separate maybe_spawn + identify_window scans of the seed.
        mean_spawned = None
        _, distance = self.states._nearest_scalar(overall_mean)
        if distance > self.spawn_threshold and len(self.states) < self.max_states:
            mean_spawned = self.states.spawn(overall_mean).state_id
        sensor_assignments = [
            self.states._nearest_scalar(row)[0].state_id for row in observations
        ]
        observable_state = self.states._nearest_scalar(overall_mean)[0].state_id
        return {
            "assignments": [self.states.resolve(a) for a in assignments],
            "spawned": spawned,
            "merged": merged,
            "sensor_assignments": sensor_assignments,
            "observable_state": observable_state,
            "mean_spawned": mean_spawned,
        }


def scalar_denoised(snapshot: EmissionMatrix, floor: float) -> np.ndarray:
    """Per-row loop reference for ``EmissionMatrix.denoised``."""
    out = snapshot.matrix.copy()
    for r in range(out.shape[0]):
        row = out[r]
        keep = row >= floor
        if not keep.any():
            keep = row == row.max()
        row[~keep] = 0.0
        out[r] = row / max(row.sum(), 1e-300)
    return out


# ---------------------------------------------------------------------------
# The 300-window equivalence property
# ---------------------------------------------------------------------------


def _random_windows(rng, n_windows=300, n_sensors=8):
    """Randomized windows engineered to exercise spawns, merges and ties."""
    centers = np.array([[0.0, 0.0], [20.0, 10.0], [40.0, -5.0]])
    windows = []
    for index in range(n_windows):
        center = centers[index // 40 % len(centers)]
        rows = center + rng.normal(0.0, 2.0, size=(n_sensors, 2))
        if index % 17 == 0:
            # A far outlier forces a spawn check to fire.
            rows[0] = center + np.array([60.0 + index % 5, 30.0])
        if index % 23 == 0:
            # Integer-lattice rows at the midpoint of two lattice points
            # create exact distance ties between drifting states.
            rows[1] = np.array([10.0, 5.0])
            rows[2] = np.array([10.0, 5.0])
        if index % 40 in (38, 39):
            # Pull everything toward one point so states drift together
            # and the merge loop runs.
            rows = np.array([10.0, 2.0]) + rng.normal(0.0, 0.5, size=(n_sensors, 2))
        windows.append(rows)
    return windows


def _majority(sensor_assignments):
    counts = Counter(sensor_assignments)
    top = max(counts.values())
    return min(s for s, c in counts.items() if c == top)


def test_300_windows_vectorized_matches_scalar_reference():
    rng = np.random.default_rng(404)
    initial = [np.array([0.0, 0.0]), np.array([20.0, 10.0])]
    kwargs = dict(alpha=0.25, spawn_threshold=8.0, merge_threshold=4.0)
    vectorized = OnlineStateClusterer(initial_vectors=initial, **kwargs)
    scalar = ScalarReferenceClusterer(initial_vectors=initial, **kwargs)
    hmm_vec = OnlineHMM()
    hmm_ref = OnlineHMM()

    n_spawns = n_merges = 0
    for window_index, observations in enumerate(_random_windows(rng)):
        overall_mean = observations.mean(axis=0)
        got = vectorized.update(observations, overall_mean=overall_mean)
        want = scalar.update(observations, overall_mean)

        context = f"window {window_index}"
        assert got.assignments == want["assignments"], context
        assert got.spawned == want["spawned"], context
        assert got.merged == want["merged"], context
        assert got.sensor_assignments == want["sensor_assignments"], context
        assert got.observable_state == want["observable_state"], context
        assert got.mean_spawned == want["mean_spawned"], context

        assert vectorized.states.state_ids == scalar.states.state_ids, context
        # Exact float equality: Eq. 6 through the cached matrix performs
        # the same arithmetic as the per-state scalar writes.
        assert np.array_equal(
            vectorized.states.vectors(), scalar.states.vectors()
        ), context

        n_spawns += len(got.spawned) + (got.mean_spawned is not None)
        n_merges += len(got.merged)

        # Feed both paths' (c_i, o_i) into HMMs: identical streams must
        # produce bit-identical B matrices at the end.
        hmm_vec.observe(_majority(got.sensor_assignments), got.observable_state)
        hmm_ref.observe(_majority(want["sensor_assignments"]), want["observable_state"])

    # The workload must actually exercise the structural operations.
    assert n_spawns > 0
    assert n_merges > 0

    b_vec = hmm_vec.emission_matrix()
    b_ref = hmm_ref.emission_matrix()
    assert b_vec.state_ids == b_ref.state_ids
    assert b_vec.symbol_ids == b_ref.symbol_ids
    assert np.array_equal(b_vec.matrix, b_ref.matrix)


# ---------------------------------------------------------------------------
# Kernel-level equivalences
# ---------------------------------------------------------------------------


def test_nearest_and_closest_pair_match_scalar_on_exact_ties():
    # Integer lattice: distances are exact, ties are real float ties.
    states = StateSet([
        np.array([0.0, 0.0]),
        np.array([4.0, 0.0]),
        np.array([0.0, 4.0]),
        np.array([4.0, 4.0]),  # all four pairwise side-distances equal
    ])
    rng = np.random.default_rng(7)
    queries = [np.array([2.0, 0.0]), np.array([2.0, 2.0]), np.array([0.0, 2.0])]
    queries += [rng.integers(-3, 8, size=2).astype(float) for _ in range(200)]
    for point in queries:
        vec_state, vec_distance = states.nearest(point)
        ref_state, ref_distance = states._nearest_scalar(point)
        assert vec_state.state_id == ref_state.state_id, point
        assert vec_distance == ref_distance, point
    assert states.assign_batch(np.vstack(queries)) == [
        states._nearest_scalar(q)[0].state_id for q in queries
    ]
    assert states.closest_pair() == states._closest_pair_scalar()


def test_closest_pair_tie_prefers_lowest_id_pair():
    states = StateSet([
        np.array([0.0, 0.0]),
        np.array([3.0, 0.0]),
        np.array([0.0, 3.0]),
    ])  # pairs (0,1) and (0,2) are both at distance 3
    assert states.closest_pair() == (0, 1, 3.0)
    assert states._closest_pair_scalar() == (0, 1, 3.0)


def test_hmm_inplace_update_matches_textbook_form():
    rng = np.random.default_rng(11)
    pairs = [
        (int(rng.integers(0, 5)), int(rng.integers(0, 7))) for _ in range(2000)
    ]
    hmm = OnlineHMM(transition_innovation=0.1, emission_innovation=0.1)
    for state, symbol in pairs:
        hmm.observe(state, symbol)

    # Scalar shadow using the allocate-a-delta textbook formula over the
    # same growing alphabet.
    shadow = OnlineHMM(transition_innovation=0.1, emission_innovation=0.1)
    prev = None
    for state, symbol in pairs:
        j = shadow._ensure_state(state)
        l = shadow._ensure_symbol(symbol)
        if prev is not None and prev != state:
            i = shadow._state_index[prev]
            delta = np.zeros(shadow._transition.shape[1])
            delta[j] = 1.0
            shadow._transition[i] = 0.9 * shadow._transition[i] + 0.1 * delta
        delta = np.zeros(shadow._emission.shape[1])
        delta[l] = 1.0
        shadow._emission[j] = 0.9 * shadow._emission[j] + 0.1 * delta
        prev = state

    assert np.array_equal(hmm._transition, shadow._transition)
    assert np.array_equal(hmm._emission, shadow._emission)


def test_denoised_matches_scalar_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_states, n_symbols = rng.integers(1, 7), int(rng.integers(1, 7))
        raw = rng.random((n_states, n_symbols)) ** 3  # many tiny entries
        raw /= raw.sum(axis=1, keepdims=True)
        snapshot = EmissionMatrix(
            matrix=raw,
            state_ids=tuple(range(n_states)),
            symbol_ids=tuple(range(n_symbols)),
        )
        floor = float(rng.choice([0.05, 0.2, 0.5, 0.9]))
        assert np.array_equal(
            snapshot.denoised(floor).matrix, scalar_denoised(snapshot, floor)
        ), (raw, floor)


def test_denoised_starved_row_keeps_largest_entry():
    snapshot = EmissionMatrix(
        matrix=np.array([[0.1, 0.15, 0.75], [0.3, 0.3, 0.4]]),
        state_ids=(0, 1),
        symbol_ids=(0, 1, 2),
    )
    out = snapshot.denoised(0.8)  # every entry of both rows is below 0.8
    assert np.array_equal(out.matrix, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# Shape regressions
# ---------------------------------------------------------------------------


def test_emptied_state_set_reports_zero_by_dim():
    states = StateSet([np.array([1.0, 2.0]), np.array([5.0, 6.0])])
    assert states.vectors().shape == (2, 2)
    states.merge(0, 1)
    assert states.vectors().shape == (1, 2)
    # A never-populated set cannot know d yet: (0, 0) is the only answer.
    assert StateSet().vectors().shape == (0, 0)


def test_distances_to_empty_set_is_n_by_zero():
    states = StateSet()
    distances, ids = states.distances_to(np.zeros((3, 2)))
    assert distances.shape == (3, 0)
    assert ids == []


def test_update_vector_keeps_cache_coherent():
    states = StateSet([np.array([0.0, 0.0]), np.array([10.0, 0.0])])
    states.vectors()  # force the cache
    states.update_vector(0, np.array([9.0, 0.0]))
    state, distance = states.nearest(np.array([9.5, 0.0]))
    assert state.state_id == 0
    assert distance == 0.5
    assert np.array_equal(states.vectors()[0], [9.0, 0.0])


def test_assign_batch_empty_set_raises():
    with pytest.raises(ValueError, match="empty"):
        StateSet().assign_batch(np.zeros((2, 2)))


class TestScratchIsolation:
    def test_interleaved_pipelines_do_not_share_scratch(self):
        """Two engines advanced window-by-window own distinct scratch.

        Reusable kernel scratch is per-instance; interleaving two
        pipelines must produce exactly the digests of two solo runs.
        """
        config = PipelineConfig()
        traces = [
            generate_gdi_trace_columnar(GDITraceConfig(n_days=1, seed=s))
            for s in (5, 6)
        ]
        window_lists = [
            window_trace_columnar(trace, config.window_minutes)
            for trace in traces
        ]

        solo = []
        for windows in window_lists:
            pipeline = DetectionPipeline(PipelineConfig())
            for window in windows:
                pipeline.process_windows_fast([window])
            solo.append(pipeline.digest())

        first = DetectionPipeline(PipelineConfig())
        second = DetectionPipeline(PipelineConfig())
        assert first._kernel_scratch is not second._kernel_scratch
        for a, b in zip(*window_lists):
            first.process_windows_fast([a])
            second.process_windows_fast([b])
        assert [first.digest(), second.digest()] == solo

    def test_stateset_scratch_is_per_instance(self):
        first = StateSet([np.array([0.0, 0.0]), np.array([5.0, 5.0])])
        second = StateSet([np.array([1.0, 1.0])])
        assert first._distance_scratch is not second._distance_scratch
        points = np.array([[0.5, 0.5], [4.0, 4.0]])
        d1, _ = first.distances_to(points)
        d2, _ = second.distances_to(points)
        # Shapes differ (2 vs 1 states): per-instance scratch must have
        # kept each call's buffers apart.
        assert d1.shape == (2, 2) and d2.shape == (2, 1)
        d1_again, _ = first.distances_to(points)
        assert np.array_equal(d1, d1_again)
