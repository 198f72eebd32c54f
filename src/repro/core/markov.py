"""First-order Markov models of the environment dynamics.

The pipeline's final deliverable is the error/attack-free Markov model
``M_C`` of the environment (step 5 of §3); the classifier's intuition is
phrased in terms of ``M_C`` versus the observable model ``M_O`` ("attacks
change the temporal behavior of the environment as sensed by the
network, while errors do not").  This module estimates such models from
state-id sequences, prunes spurious low-probability states (the Fig. 7
discussion drops state (16,27)), and compares two models structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class MarkovModel:
    """An estimated first-order Markov chain over model states.

    Attributes
    ----------
    state_ids:
        Ids of the states, in matrix order.
    transition:
        Row-stochastic transition matrix between those states.
    visit_counts:
        Number of sequence steps spent in each state.
    state_vectors:
        Optional attribute vector per state id (for display labels).
    """

    state_ids: Tuple[int, ...]
    transition: np.ndarray
    visit_counts: Tuple[int, ...]
    state_vectors: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_states(self) -> int:
        """Number of states in the model."""
        return len(self.state_ids)

    def visit_fraction(self, state_id: int) -> float:
        """Fraction of all steps spent in ``state_id``."""
        total = sum(self.visit_counts)
        if total == 0:
            return 0.0
        return self.visit_counts[self.state_ids.index(state_id)] / total

    def transitions(self, min_probability: float = 0.0) -> List[Tuple[int, int, float]]:
        """(from id, to id, probability) for every edge above threshold."""
        edges = []
        for i, src in enumerate(self.state_ids):
            for j, dst in enumerate(self.state_ids):
                p = float(self.transition[i, j])
                if p > min_probability:
                    edges.append((src, dst, p))
        return edges

    def edge_set(self, min_probability: float = 0.05) -> Set[Tuple[int, int]]:
        """The structural (from, to) edge set, thresholded."""
        return {
            (src, dst)
            for src, dst, p in self.transitions(min_probability)
            if src != dst
        }

    def label(self, state_id: int) -> str:
        """Display label ``(t,h)`` from the attached state vector."""
        vector = self.state_vectors.get(state_id)
        if vector is None:
            return f"s{state_id}"
        coords = ",".join(f"{x:.0f}" for x in np.asarray(vector))
        return f"({coords})"

    def to_graph(self, min_probability: float = 0.01) -> nx.DiGraph:
        """Export as a networkx digraph (nodes carry labels/visits).

        networkx is imported here, not at module top, so that
        ``import repro`` needs only numpy.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for idx, state_id in enumerate(self.state_ids):
            graph.add_node(
                state_id,
                label=self.label(state_id),
                visits=self.visit_counts[idx],
            )
        for src, dst, p in self.transitions(min_probability):
            graph.add_edge(src, dst, probability=p)
        return graph

    def prune(self, min_visit_fraction: float = 0.02) -> "MarkovModel":
        """Drop spurious states visited less than the given fraction.

        This is how Fig. 7's low-probability fluctuation state (16,27)
        is excluded from the "key states of the system".  Transition
        rows are renormalised over the surviving states.
        """
        total = max(sum(self.visit_counts), 1)
        keep = [
            i
            for i, count in enumerate(self.visit_counts)
            if count / total >= min_visit_fraction
        ]
        if not keep:
            keep = [int(np.argmax(self.visit_counts))]
        sub = self.transition[np.ix_(keep, keep)]
        sums = sub.sum(axis=1, keepdims=True)
        sub = np.where(sums > 0, sub / np.maximum(sums, 1e-300), 0.0)
        # Rows that lost all mass (only transitioned to pruned states)
        # become self-loops, the least-information choice.
        for row in range(sub.shape[0]):
            if sub[row].sum() == 0.0:
                sub[row, row] = 1.0
        kept_ids = tuple(self.state_ids[i] for i in keep)
        return MarkovModel(
            state_ids=kept_ids,
            transition=sub,
            visit_counts=tuple(self.visit_counts[i] for i in keep),
            state_vectors={
                s: v for s, v in self.state_vectors.items() if s in kept_ids
            },
        )


def estimate_markov_model(
    sequence: Sequence[int],
    state_vectors: Optional[Dict[int, np.ndarray]] = None,
    smoothing: float = 0.0,
) -> MarkovModel:
    """Estimate a Markov model from a state-id sequence.

    Parameters
    ----------
    sequence:
        The observed state ids (``c_i`` for ``M_C``, ``o_i`` for
        ``M_O``).
    state_vectors:
        Optional id -> attribute vector map for labels.
    smoothing:
        Additive smoothing on transition counts (0 keeps the raw MLE).
    """
    sequence = list(sequence)
    if not sequence:
        raise ValueError("cannot estimate a Markov model from an empty sequence")
    state_ids = tuple(sorted(set(sequence)))
    index = {s: i for i, s in enumerate(state_ids)}
    n = len(state_ids)

    counts = np.full((n, n), float(smoothing))
    visits = np.zeros(n, dtype=int)
    visits[index[sequence[0]]] += 1
    for prev, curr in zip(sequence[:-1], sequence[1:]):
        counts[index[prev], index[curr]] += 1.0
        visits[index[curr]] += 1

    sums = counts.sum(axis=1, keepdims=True)
    transition = np.where(sums > 0, counts / np.maximum(sums, 1e-300), 0.0)
    for row in range(n):
        if transition[row].sum() == 0.0:
            transition[row, row] = 1.0

    vectors = {}
    if state_vectors:
        vectors = {
            s: np.asarray(state_vectors[s], dtype=float)
            for s in state_ids
            if s in state_vectors
        }
    return MarkovModel(
        state_ids=state_ids,
        transition=transition,
        visit_counts=tuple(int(v) for v in visits),
        state_vectors=vectors,
    )


@dataclass(frozen=True)
class ModelComparison:
    """Structural comparison of two Markov models (M_C vs M_O).

    The paper's first-order intuition: under *errors* the two models
    share state count and transition structure; under *attacks* the
    temporal structure differs.
    """

    same_state_count: bool
    common_edges: int
    only_in_first: int
    only_in_second: int

    @property
    def same_structure(self) -> bool:
        """True when the models share their full edge sets."""
        return (
            self.same_state_count
            and self.only_in_first == 0
            and self.only_in_second == 0
        )


def compare_models(
    first: MarkovModel,
    second: MarkovModel,
    min_probability: float = 0.05,
) -> ModelComparison:
    """Compare the structural edge sets of two Markov models."""
    edges_first = first.edge_set(min_probability)
    edges_second = second.edge_set(min_probability)
    return ModelComparison(
        same_state_count=first.n_states == second.n_states,
        common_edges=len(edges_first & edges_second),
        only_in_first=len(edges_first - edges_second),
        only_in_second=len(edges_second - edges_first),
    )
