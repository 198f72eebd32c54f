"""The full detection pipeline (paper Fig. 1).

:class:`DetectionPipeline` wires every module of §3 together and is the
library's main entry point.  Feed it observation windows (live from the
simulator or batch from a trace) and query it for raw/filtered alarms,
per-sensor diagnoses, and the clean environment model ``M_C``.

Per window the pipeline:

1. averages each sensor's readings (Θ is ~constant within ``w``),
2. runs the online clusterer (spawn / Eq. 6 update / merge),
3. identifies ``o_i``, ``l_j``, ``c_i`` (Eqs. 2-4),
4. generates raw alarms (``l_j != c_i``) and filters them,
5. opens/closes error/attack tracks on filtered-alarm transitions and
   records the window into every open track (⊥ on agreement),
6. updates the global online HMM ``M_CO`` with ``(c_i, o_i)`` (each
   track updates its own ``M_CE`` in step 5),
7. appends ``c_i``/``o_i`` to the sequences behind ``M_C``/``M_O``.

Two entry points consume windows, both through one fused step:
``process_window`` (one window as it arrives) and
``process_windows_fast`` (a batch, one grouped means pass).  The private
``_process_window_reference`` is the per-window oracle they are pinned to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..sensornet.collector import ArrayWindow, ObservationWindow

if TYPE_CHECKING:  # avoid a circular import; see repro.config
    from ..config import PipelineConfig
from .alarms import AlarmGenerator, RawAlarm
from .classification import (
    AnomalyType,
    ClassifierConfig,
    Diagnosis,
    classify_system,
    classify_track,
)
from .clustering import ClusterUpdate, OnlineStateClusterer
from .filtering import FilterBank, FilterTransition
from .identification import WindowIdentification, identify_window
from .kernels import grouped_sums, pairwise_distances
from .markov import MarkovModel, estimate_markov_model
from .online_hmm import OnlineHMM
from .tracks import ErrorAttackTrack, TrackManager

class _SteadyStretch:
    """Mutable context for one certified stretch.

    A stretch keeps the sensor set of the certified window that opened
    it and pins a sensor→state partition: ``groups`` lists the sorted
    sensor positions of each state group in the oracle's
    first-occurrence order, and the largest group (unique by
    construction) is the majority.  ``k = 1`` is the unanimous healthy
    stretch.  A window whose partition changed but still certifies
    re-pins the stretch in place (:meth:`pin`).  Every live state's
    vector evolves here in Python floats (``vecs``, aligned with
    ``state_ids``) with per-state deferred visit counts; alarm-history
    runs and raw alarms of the current pin are deferred too.  The pin's
    deferred state is folded back at a re-pin, and all of it at stretch
    exit.  The filter bank is never deferred: each certified window
    updates the filters the pin has not yet settled (``unsettled``).  A
    stretch stays open across ``process_window`` calls until a window
    fails both certificates or a reader forces
    ``DetectionPipeline._sync``.
    """

    __slots__ = (
        "ids",
        "groups",
        "group_of",
        "major",
        "raws",
        "state_ids",
        "vecs",
        "visits",
        "targets",
        "pattern",
        "count",
        "log",
        "unsettled",
    )

    def __init__(
        self,
        ids: List[int],
        state_ids: List[int],
        vecs: List[List[float]],
    ) -> None:
        #: the sorted sensor ids (a different set ends the stretch)
        self.ids = ids
        self.state_ids = state_ids
        self.vecs = vecs
        self.visits = [0] * len(state_ids)
        self.groups: List[List[int]] = []
        self.group_of: List[int] = []
        self.major = 0
        #: per-sorted-position raw alarm: fixed for a pin, since only
        #: the majority group agrees with the correct state
        self.raws: List[bool] = []
        #: ``state_ids`` index each group currently maps to
        self.targets: List[int] = []
        self.pattern: tuple = ()
        #: certified windows of the current pin
        self.count = 0
        #: ``(window_index, order_first, pattern)`` of every certified
        #: window with raw alarms, for the deferred ``RawAlarm`` log
        self.log: List[tuple] = []
        #: ascending sorted positions whose filter ``raws`` may still
        #: move (``AlarmFilter.settled``); the rest are skipped
        self.unsettled: List[int] = []

    def pin(
        self,
        groups: List[List[int]],
        major: int,
        targets: List[int],
        bank: FilterBank,
    ) -> None:
        """Pin a partition: ``groups`` (majority ``groups[major]``)
        mapped to the ``state_ids`` indices ``targets``, with the
        positions whose ``bank`` filter the new raws do not settle.  The
        caller has folded the previous pin's raw-dependent deferred
        state."""
        self.groups = groups
        self.group_of = [0] * len(self.ids)
        for index, members in enumerate(groups):
            for position in members:
                self.group_of[position] = index
        self.major = major
        self.raws = [group != major for group in self.group_of]
        # ``filter_for`` creates a new sensor's filter, as the window's
        # own update would.
        self.unsettled = [
            position
            for position, (sensor_id, raw) in enumerate(zip(self.ids, self.raws))
            if not bank.filter_for(sensor_id).settled(raw)
        ]
        self.retarget(targets)

    def retarget(self, targets: List[int]) -> None:
        """Point the pinned groups at the states a certified window
        moved them to, and rebuild the window's compact pattern
        ``(assignments in sorted order, correct state, majority size)``."""
        self.targets = targets
        group_states = [self.state_ids[index] for index in targets]
        self.pattern = (
            [group_states[group] for group in self.group_of],
            group_states[self.major],
            len(self.groups[self.major]),
        )


class _Deferred:
    """A :class:`WindowResult` field a certified window builds on first read.

    A non-data descriptor, like ``functools.cached_property``: a value
    set by ``__init__`` lives on the instance and shadows it, so the
    dataclass keeps its fields, defaults, ``__init__``, ``==``, ``hash``,
    ``repr`` and frozenness, and eager reads never reach it.  A
    certified window's result (:func:`_certified_result`) holds a
    compact marker instead of the three deferred fields; the first read
    of any of them lands here and builds all three
    (:func:`_build_certified`).
    """

    def __init__(self, default: object) -> None:
        self.default = default

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, result: object, owner: Optional[type] = None) -> object:
        if result is None:
            return self.default  # the dataclass reads its default here
        _build_certified(result)
        return getattr(result, self.name)


@dataclass(frozen=True)
class WindowResult:
    """Everything the pipeline derived from one observation window."""

    window_index: int
    skipped: bool
    identification: Optional[WindowIdentification] = _Deferred(None)
    cluster_update: Optional[ClusterUpdate] = _Deferred(None)
    raw_alarms: Sequence[RawAlarm] = _Deferred(())
    filter_transitions: Sequence[FilterTransition] = ()
    n_model_states: int = 0
    #: True when the supervisor's ModelUnderAttack meta-alarm froze the
    #: β/γ learning updates for this window (always False unsupervised).
    learning_frozen: bool = False

    @property
    def observable_state(self) -> Optional[int]:
        """``o_i`` of this window (None when skipped)."""
        return self.identification.observable_state if self.identification else None

    @property
    def correct_state(self) -> Optional[int]:
        """``c_i`` of this window (None when skipped)."""
        return self.identification.correct_state if self.identification else None

    def __getstate__(self) -> Dict[str, object]:
        # The fields in declaration order, deferred ones built: a
        # certified window pickles exactly like an eagerly built result.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


class DetectionPipeline:
    """The paper's on-the-fly detection and classification procedure.

    Parameters
    ----------
    config:
        All pipeline knobs (Table 1 defaults).
    initial_states:
        Optional initial model-state vectors.  When omitted, the first
        non-empty window bootstraps the state set (the paper notes the
        method "worked equally well when a set of random initial states
        was provided", footnote 5).
    """

    def __init__(
        self,
        config: "Optional[PipelineConfig]" = None,
        initial_states: Optional[Sequence[np.ndarray]] = None,
    ):
        if config is None:
            # Imported lazily: repro.config itself imports repro.core.
            from ..config import PipelineConfig

            config = PipelineConfig()
        self.config = config
        #: Owner-private scratch for the grouped window-means kernel.
        #: One dict per pipeline: interleaving two pipelines can never
        #: alias each other's reusable buffers.
        self._kernel_scratch: dict = {}
        self._initial_states = (
            [np.asarray(v, dtype=float) for v in initial_states]
            if initial_states is not None
            else None
        )
        self._clusterer: Optional[OnlineStateClusterer] = None
        self._alarm_generator = AlarmGenerator()
        self._filter_bank = FilterBank(factory=self.config.filter_factory())
        #: The open certified stretch, if any: kept across calls and
        #: folded back into the modules by ``_sync`` before anything
        #: reads them.
        self._steady: Optional[_SteadyStretch] = None
        # Table 1's beta/gamma are retention factors; the online HMMs take
        # the complementary innovation rates (see OnlineHMM's docstring).
        self.tracks = TrackManager(
            transition_innovation=1.0 - self.config.beta,
            emission_innovation=1.0 - self.config.gamma,
        )
        self.m_co = OnlineHMM(
            transition_innovation=1.0 - self.config.beta,
            emission_innovation=1.0 - self.config.gamma,
        )
        self.correct_sequence: List[int] = []
        self.observable_sequence: List[int] = []
        #: Per-window :class:`WindowResult` log.  A certified window's
        #: result builds its identification, cluster update and raw
        #: alarms on first read (see ``_Deferred``).
        self.results: List[WindowResult] = []
        self._n_windows = 0
        #: Non-finite per-sensor readings dropped by the input guard.
        self.n_non_finite_dropped = 0
        #: Runtime invariant supervisor (None when supervisor_mode is
        #: "off" — every code path is then exactly the unsupervised one,
        #: so digests stay bit-identical).
        self.supervisor = None
        if self.config.supervisor_mode != "off":
            # Imported lazily: repro.resilience imports repro.core.
            from ..resilience.supervisor import PipelineSupervisor

            self.supervisor = PipelineSupervisor.from_config(self.config)

    # -- live fused state ---------------------------------------------------

    def _sync(self) -> None:
        """Fold the live fused state back into the modules.

        Ends an open stretch (its deferred centroid motion and visits,
        alarm-history runs and raw alarms).  The
        ``clusterer``/``alarm_generator``/``filter_bank`` accessors call
        this, so every reader (digest, snapshot, diagnoses, models, the
        supervisor, the oracle) sees exactly the oracle's state, and a
        caller that mutates a module never leaves a stretch holding
        stale state.
        """
        steady = self._steady
        if steady is not None:
            self._steady = None
            self._steady_exit(steady)

    @property
    def clusterer(self) -> Optional[OnlineStateClusterer]:
        """The online state clusterer (None before the first window)."""
        self._sync()
        return self._clusterer

    @clusterer.setter
    def clusterer(self, value: Optional[OnlineStateClusterer]) -> None:
        self._sync()
        self._clusterer = value

    @property
    def alarm_generator(self) -> AlarmGenerator:
        """The raw-alarm generator and its per-sensor alarm history."""
        self._sync()
        return self._alarm_generator

    @alarm_generator.setter
    def alarm_generator(self, value: AlarmGenerator) -> None:
        self._sync()
        self._alarm_generator = value

    @property
    def filter_bank(self) -> FilterBank:
        """The per-sensor alarm filters."""
        self._sync()
        return self._filter_bank

    @filter_bank.setter
    def filter_bank(self, value: FilterBank) -> None:
        self._sync()
        self._filter_bank = value

    # -- bootstrap ----------------------------------------------------------

    def _bootstrap_clusterer(self, per_sensor: Dict[int, np.ndarray]) -> None:
        """Create the clusterer from explicit or first-window states."""
        if self._initial_states is not None:
            vectors = self._initial_states
        else:
            # Greedy farthest-point seeding from the first window: take
            # each sensor mean that no existing seed already explains.
            vectors = []
            for vector in per_sensor.values():
                if not vectors or all(
                    np.linalg.norm(vector - seed) > self.config.spawn_threshold
                    for seed in vectors
                ):
                    vectors.append(np.asarray(vector, dtype=float))
                if len(vectors) >= self.config.n_initial_states:
                    break
        self._clusterer = OnlineStateClusterer(
            initial_vectors=vectors,
            alpha=self.config.alpha,
            spawn_threshold=self.config.spawn_threshold,
            merge_threshold=self.config.merge_threshold,
            max_states=self.config.max_states,
        )

    # -- the per-window step ---------------------------------------------

    def _sanitize(
        self, window: ObservationWindow
    ) -> "tuple[Dict[int, np.ndarray], Optional[np.ndarray]]":
        """Per-sensor means and overall mean with non-finite readings dropped.

        The collector already quarantines NaN/Inf messages, but windows
        can also be built by the batch windowers or by hand; a single
        non-finite reading must never reach the clusterer, where the
        Eq. 6 convex update would poison a centroid irrecoverably.
        """
        per_sensor = window.per_sensor_mean()
        if not per_sensor:
            return {}, None
        # One vectorized finiteness check over the stacked means instead
        # of a NumPy reduction per sensor.  A non-finite raw reading
        # always makes its sensor's mean non-finite (NaN/Inf propagate
        # through the sum), so an all-finite mean matrix certifies the
        # whole window and the raw rows need no second look.
        means = np.vstack(list(per_sensor.values()))
        finite_mask = np.isfinite(means).all(axis=1)
        if finite_mask.all():
            return per_sensor, window.overall_mean()
        finite = {
            sensor_id: vector
            for (sensor_id, vector), ok in zip(per_sensor.items(), finite_mask)
            if ok
        }
        self.n_non_finite_dropped += len(per_sensor) - len(finite)
        if not finite:
            return {}, None
        rows = window.observations
        finite_rows = rows[np.all(np.isfinite(rows), axis=1)]
        if finite_rows.shape[0] == rows.shape[0]:
            overall = window.overall_mean()
        else:
            overall = finite_rows.mean(axis=0)
        return finite, overall

    def process_window(self, window: ObservationWindow) -> WindowResult:
        """Consume one observation window; returns what was derived.

        The paper's on-the-fly step (§3, Fig. 1), run through the fused
        engine: one window's means come from :func:`_window_stats`, any
        certified stretch stays open across calls (folded back by
        ``_sync`` before anything reads pipeline state), and a certified
        window's result builds its fields on first read.
        On the benchmark's stream-online workload (10 deployments x 21
        days, 5040 windows) a streamed window costs about 106 µs:
        ``verdict_s`` 0.534 s per pass in reference-host seconds, a
        2-vCPU x86-64 VM (EXPERIMENTS.md A8).  The returned
        :class:`WindowResult` and every piece of pipeline state are
        bit-identical to the per-window oracle
        ``_process_window_reference``, for any filter bank: stock,
        custom or restored under another filter configuration.
        """
        # The stats kernel and the fused step rely on this fp state (huge
        # observations saturate to inf).
        with np.errstate(over="ignore"):
            self._fused_step(window, _window_stats(window, self._kernel_scratch))
        return self.results[-1]

    def process_windows_fast(self, windows: Sequence[ObservationWindow]) -> int:
        """Consume many windows through the fused step, one stats pass.

        The same step as :meth:`process_window` in a loop, but the
        per-sensor window means of the whole batch come from one grouped
        ``bincount`` pass (:func:`_batched_window_means`).  Returns the
        number of windows consumed; their results are in :attr:`results`.
        """
        stats = _batched_window_means(windows, scratch=self._kernel_scratch)
        # One fp-state save for the whole run (see process_window).
        with np.errstate(over="ignore"):
            for window, stat in zip(windows, stats):
                self._fused_step(window, stat)
        return len(windows)

    def _fused_step(self, window: ObservationWindow, stat: "Optional[tuple]") -> None:
        """One window through the fused engine.

        The open stretch's pinned-partition certificate first; else
        (unsupervised) the window-derived certificate, which re-pins
        the open stretch or opens one; else the stretch is folded back
        and the full fused step runs.  All three drive the one
        :class:`FilterBank` the oracle uses.  The caller holds
        ``np.errstate(over="ignore")``."""
        steady = self._steady
        if steady is not None and self._steady_step(window, stat, steady):
            return
        if self.supervisor is None and self._window_step(window, stat):
            return
        self._sync()
        self._process_window_fast(window, stat)

    def _process_window_reference(self, window: ObservationWindow) -> WindowResult:
        """The per-window reference step: the fused engine's oracle.

        Runs every module of Fig. 1 on the scalar state, one window at a
        time; the parity suites pin the fused step to it bit for bit.
        """
        self._n_windows += 1
        per_sensor, overall_mean = self._sanitize(window)
        if not per_sensor:
            result = WindowResult(
                window_index=window.index,
                skipped=True,
                learning_frozen=(
                    self.supervisor.learning_frozen
                    if self.supervisor is not None
                    else False
                ),
            )
            self.results.append(result)
            if self.supervisor is not None:
                self.supervisor.after_window(self)
            return result
        if self.clusterer is None:
            self._bootstrap_clusterer(per_sensor)
        assert self.clusterer is not None
        assert overall_mean is not None

        sensor_ids = sorted(per_sensor.keys())
        observations = np.vstack([per_sensor[s] for s in sensor_ids])
        # One-pass hot path: the clusterer's window update also performs
        # the overall-mean spawn check and hands back the post-update
        # Eq. 2/3 results, so identification never re-scans the states.
        cluster_update = self.clusterer.update(
            observations, overall_mean=overall_mean
        )
        # Key the row-indexed assignments back to sensor ids in the
        # window's own iteration order: alarm and filter bookkeeping
        # follow dict order, which must not change under the hood.
        assignment_of = dict(zip(sensor_ids, cluster_update.sensor_assignments))
        identification = identify_window(
            self.clusterer,
            per_sensor,
            overall_mean=overall_mean,
            sensor_states={s: assignment_of[s] for s in per_sensor},
            observable_state=cluster_update.observable_state,
        )

        raw_alarms = self.alarm_generator.process(window.index, identification)
        raw_by_sensor = {
            sensor_id: state_id != identification.correct_state
            for sensor_id, state_id in identification.sensor_states.items()
        }
        transitions = self.filter_bank.update(window.index, raw_by_sensor)
        for transition in transitions:
            if transition.raised:
                self.tracks.open_track(transition.sensor_id, window.index)
            else:
                self.tracks.close_track(transition.sensor_id, window.index)

        # Majority-assumption monitor: while the ModelUnderAttack
        # meta-alarm is active, every model-learning update is frozen —
        # M_CO, the track M_CE models, and the c_i/o_i sequences behind
        # M_C/M_O — so a coordinated compromise cannot poison the
        # learned models.  Detection (alarms, filters, track open/close)
        # keeps running above.
        frozen = (
            self.supervisor.observe_identification(window.index, identification)
            if self.supervisor is not None
            else False
        )
        if not frozen:
            self.tracks.record_window(
                identification.correct_state, identification.sensor_states
            )
            self.m_co.observe(
                identification.correct_state, identification.observable_state
            )
            self.correct_sequence.append(identification.correct_state)
            self.observable_sequence.append(identification.observable_state)

        result = WindowResult(
            window_index=window.index,
            skipped=False,
            identification=identification,
            cluster_update=cluster_update,
            raw_alarms=tuple(raw_alarms),
            filter_transitions=tuple(transitions),
            n_model_states=self.clusterer.n_states,
            learning_frozen=frozen,
        )
        self.results.append(result)
        if self.supervisor is not None:
            self.supervisor.after_window(self)
        return result

    # -- the fused step -------------------------------------------------------

    def _process_window_fast(
        self, window: ObservationWindow, stat: "Optional[tuple]"
    ) -> None:
        """One full fused window step (mirrors ``_process_window_reference``):
        the clusterer, identification, alarm generator and filter bank
        run on the live modules.  No stretch is open here."""
        self._n_windows += 1
        supervisor = self.supervisor
        per_sensor: Optional[Dict[int, np.ndarray]] = None
        if stat is None:
            # Slow lane: message-backed window or non-finite means —
            # run the oracle's sanitizer (and its raises) verbatim.
            per_sensor, overall_mean = self._sanitize(window)
            if per_sensor:
                ids_first = list(per_sensor.keys())
                ids_sorted = sorted(ids_first)
                observations = np.vstack([per_sensor[s] for s in ids_sorted])
                position = {s: i for i, s in enumerate(ids_sorted)}
                order_first: Sequence[int] = [position[s] for s in ids_first]
            else:
                ids_sorted = []
        else:
            ids_sorted, observations, order_first, overall_mean = stat[:4]
            if overall_mean is None:
                overall_mean = window.overall_mean()
        if not ids_sorted:
            frozen = (
                supervisor.learning_frozen if supervisor is not None else False
            )
            self.results.append(
                WindowResult(
                    window_index=window.index,
                    skipped=True,
                    learning_frozen=frozen,
                )
            )
            if supervisor is not None:
                supervisor.after_window(self)
            return
        if self._clusterer is None:
            if per_sensor is None:
                per_sensor = {
                    ids_sorted[p]: observations[p] for p in order_first
                }
            self._bootstrap_clusterer(per_sensor)
        assert self._clusterer is not None
        assert overall_mean is not None

        cluster_update = self._clusterer.update(
            observations, overall_mean=overall_mean
        )
        assignments = cluster_update.sensor_assignments
        # Keyed in the window's first-occurrence order, exactly like the
        # oracle's per_sensor-driven dict (alarm bookkeeping follows it).
        sensor_states = {ids_sorted[p]: assignments[p] for p in order_first}
        identification = identify_window(
            self._clusterer,
            # Only len()/truthiness of per_sensor is read when
            # precomputed states are supplied; the assignment dict has
            # the same keys as the per-sensor means.
            sensor_states,
            overall_mean=overall_mean,
            sensor_states=sensor_states,
            observable_state=cluster_update.observable_state,
        )

        raw_alarms = self._alarm_generator.process(window.index, identification)
        correct = identification.correct_state
        transitions = self._filter_bank.update(
            window.index,
            {
                sensor_id: state_id != correct
                for sensor_id, state_id in zip(ids_sorted, assignments)
            },
        )
        for transition in transitions:
            if transition.raised:
                self.tracks.open_track(transition.sensor_id, window.index)
            else:
                self.tracks.close_track(transition.sensor_id, window.index)

        frozen = (
            supervisor.observe_identification(window.index, identification)
            if supervisor is not None
            else False
        )
        if not frozen:
            self.tracks.record_window_batch(correct, ids_sorted, assignments)
            self.m_co.observe(correct, identification.observable_state)
            self.correct_sequence.append(correct)
            self.observable_sequence.append(identification.observable_state)

        self.results.append(
            WindowResult(
                window_index=window.index,
                skipped=False,
                identification=identification,
                cluster_update=cluster_update,
                raw_alarms=tuple(raw_alarms),
                filter_transitions=tuple(transitions),
                n_model_states=self._clusterer.n_states,
                learning_frozen=frozen,
            )
        )
        if supervisor is not None:
            supervisor.after_window(self)

    # -- certified stretches ------------------------------------------
    #
    # The dominant regimes of a trace are a healthy network whose every
    # sensor maps to one state, and, after a fault's onset, a split: the
    # faulty sensor (or the attacking coalition) sits in its own state
    # while the majority tracks the environment (§3.1).  Most windows
    # spawn and merge nothing, and the only float state that evolves
    # outside the filter/HMM modules is the vector of each visited state
    # — one Eq. 6 recurrence ``v <- (1-alpha)*v + alpha*g`` per group
    # that Python floats compute with the same two roundings per element
    # as the oracle's NumPy expression, from group means ``g`` summed in
    # the oracle's order.
    #
    # The stretch path therefore skips the distance kernels and instead
    # *proves*, per window and in scalar float ops, what the oracle's
    # clustering pass would do.  Two certificates share the group means,
    # the Eq. 6 moves, the overall-mean check and the merge check; they
    # differ in where the partition comes from.
    #
    # The pinned-partition certificate (``_steady_step``, tried first
    # because it is the cheaper one) takes the open stretch's partition.
    # For each group j with mean g_j, radius r_j (max distance from g_j
    # to the group's points) and target t_j (the state nearest g_j,
    # normally the group's own), let delta_X be the length of state X's
    # Eq. 6 step this window (0 for a state no group targets).  The
    # triangle inequality gives, for every point p of the group, against
    # the pre-move and post-move states:
    #
    # * d(p, t_j) <= max(d(g_j, t_j), d(g_j, t_j')) + r_j =: reach_j,
    #   with t_j' the post-move target — so ``reach_j <=
    #   spawn_threshold`` rules out every spawn check (they all need a
    #   distance *above* the threshold).
    # * d(p, X) >= d(g_j, X) - r_j - delta_X for any other state X — so
    #   ``reach_j + r_j + delta_X < d(g_j, X)`` keeps every point
    #   strictly nearer t_j than X before and after the moves, and every
    #   argmin (the tie-break included) lands on t_j: the pre-update and
    #   final assignments both reproduce the partition.
    #
    # Targets must stay distinct; a group whose centroid moved into
    # another state's basin (an environment transition) retargets in
    # place.
    #
    # The window-derived certificate (``_window_step``) runs when that
    # one fails or no stretch is open, and reads the partition off the
    # window instead: every sensor mean's nearest pre-move state lies
    # within ``spawn_threshold`` and strictly nearer than the second
    # nearest (no spawn, an unambiguous Eq. 3); the groups follow the
    # oracle's first-occurrence order with a unique majority; and after
    # the moves each point's distance to its own moved target, measured
    # directly, stays strictly below min_X d(p, X) - max_X delta_X over
    # the other states X, so the final assignments equal the pre-update
    # ones.  It measures a distance per sensor and state (one kernel
    # call) instead of per group, hence the fallback.  A success re-pins
    # the open stretch in place — after folding the old pin's
    # raw-dependent deferred state — or opens a stretch.
    #
    # Both certificates then check:
    #
    # * the overall mean: a one-group pinned window's radius (the
    #   batched spread) covers it; otherwise it is measured directly
    #   against the post-move states: a unique nearest state within
    #   ``spawn_threshold`` is the observable state, and no mean spawn
    #   happens.
    # * the certified pair-distance lower bound (see ``StateSet``),
    #   decayed once per moved state in the oracle's group order,
    #   staying >= merge_threshold rules out merges; where the oracle
    #   would rescan instead, the stretch runs the same scan over the
    #   post-move vectors and keeps its bound if that still clears it.
    #
    # Every certificate is padded by an absolute + relative slack so
    # float rounding in these scalar evaluations can never certify a
    # window the oracle would have handled differently.  A window that
    # fails both exits the stretch (deferred state is written back
    # first) and reprocesses through the full fused path — certification
    # is a pure go/no-go, never a result.

    def _steady_step(
        self,
        window: ObservationWindow,
        stat: "Optional[tuple]",
        ctx: "_SteadyStretch",
    ) -> bool:
        """Process one window under the open stretch's pinned partition.

        Returns False — mutating nothing — when the window cannot be
        certified against the pin; the caller then tries the
        window-derived certificate (``_window_step``).
        """
        if stat is None or stat[0] != ctx.ids:
            # No fused stats, or a different sensor population: the
            # pinned partition no longer applies.
            return False
        full_mean = stat[4]
        spread = stat[5]
        if full_mean is None or spread is None:
            return False
        clusterer = self._clusterer
        assert clusterer is not None
        groups = ctx.groups
        # A one-group window's mean is the precomputed full mean and
        # ``spread`` its radius.  Distances that only feed certificates
        # use ``math.dist``; its rounding differs from the kernels' by
        # far less than the pads.
        if len(groups) == 1:
            goals = [full_mean.tolist()]
            radii = [spread]
        else:
            rows = stat[1].tolist()
            goals = _group_means(rows, groups)
            radii = [
                max(math.dist(rows[p], goal) for p in group)
                for group, goal in zip(groups, goals)
            ]
        # Each group's target: the state nearest its centroid.
        vecs = ctx.vecs
        dists = []
        targets = []
        for goal in goals:
            row = [math.dist(goal, vector) for vector in vecs]
            dists.append(row)
            targets.append(row.index(min(row)))
        if len(set(targets)) != len(targets):
            return False
        moved, steps, others = _eq6_moves(vecs, targets, goals, clusterer.alpha)
        threshold = clusterer.spawn_threshold
        for target, goal, row, radius in zip(targets, goals, dists, radii):
            # ``reach`` bounds the group's points' distance to the
            # target, pre- and post-move.
            reach = max(row[target], math.dist(goal, moved[target])) + radius
            pad = 1e-9 + 1e-12 * (reach + radius)
            if not reach + pad <= threshold:
                return False
            # Every other state X stays farther than d(g_j, X) - delta_X,
            # at least the nearest other distance minus the largest
            # other step.
            row[target] = math.inf
            if not reach + radius + pad < (min(row) - others[target]) * (
                1.0 - 1e-12
            ) - 1e-9:
                return False
        if len(groups) == 1:
            # The one group's spread covers the overall mean, so the
            # group certificate already puts it strictly nearest the
            # target and within reach: no mean spawn.
            observable: Optional[int] = targets[0]
        else:
            observable = _certified_observable(stat[3], vecs, moved, threshold)
            if observable is None:
                return False
        bound = self._certified_pair_bound(vecs, moved, targets, steps)
        if bound is None:
            return False
        self._steady_commit(window, stat, ctx, targets, moved, observable, bound)
        return True

    def _window_step(
        self, window: ObservationWindow, stat: "Optional[tuple]"
    ) -> bool:
        """Process one window under the window-derived certificate.

        Certified against the open stretch's state vectors (the live
        states when none is open).  With the open stretch's sensor set
        the stretch re-pins in place to the window's partition;
        otherwise any open stretch exits and a new one opens on this
        window.  Returns False — mutating nothing — when the window
        cannot be certified.
        """
        clusterer = self._clusterer
        if stat is None or stat[4] is None or clusterer is None:
            return False
        ctx = self._steady
        if ctx is not None:
            state_ids, vecs = ctx.state_ids, ctx.vecs
        else:
            matrix, live_ids = clusterer.states._ensure_cache()
            if not np.isfinite(matrix).all():
                # A NaN state would win the oracle's argmin, which the
                # scalar minima here cannot mirror (Eq. 6 from finite
                # states never makes one inside a stretch).
                return False
            state_ids, vecs = list(live_ids), matrix.tolist()
        threshold = clusterer.spawn_threshold
        rows = stat[1].tolist()
        # Eq. 3 against the pre-move states, with margin: each sensor's
        # nearest state lies within the spawn threshold and strictly
        # nearer than the second nearest (``far``).  One distance kernel
        # call; groups form in the oracle's first-occurrence order.
        fars = []
        members: Dict[int, List[int]] = {}
        distances = pairwise_distances(
            stat[1], np.array(vecs), self._kernel_scratch
        ).tolist()
        for position, row in enumerate(distances):
            near = min(row)
            target = row.index(near)
            row[target] = math.inf
            far = min(row)
            limit = near + 1e-9 + 1e-12 * near
            if not (
                limit <= threshold and limit < far * (1.0 - 1e-12) - 1e-9
            ):
                return False
            fars.append(far)
            members.setdefault(target, []).append(position)
        groups = list(members.values())
        targets = list(members)
        sizes = [len(group) for group in groups]
        top = max(sizes)
        if sizes.count(top) > 1:
            # A tied majority: Eq. 4's tie-break reads state geometry
            # the stretch does not track.
            return False
        goals = (
            [stat[4].tolist()] if len(groups) == 1 else _group_means(rows, groups)
        )
        moved, steps, others = _eq6_moves(vecs, targets, goals, clusterer.alpha)
        # Eq. 3 after the moves: each point's distance to its own moved
        # target, measured directly, stays strictly below its pre-move
        # distance to any other state (at least ``far``) minus the
        # largest step any other state takes.
        for target, group in zip(targets, groups):
            new = moved[target]
            slack = others[target]
            for position in group:
                own = math.dist(rows[position], new)
                if not own + 1e-9 + 1e-12 * own < (fars[position] - slack) * (
                    1.0 - 1e-12
                ) - 1e-9:
                    return False
        observable = _certified_observable(stat[3], vecs, moved, threshold)
        if observable is None:
            return False
        bound = self._certified_pair_bound(vecs, moved, targets, steps)
        if bound is None:
            return False

        # -- certified: re-pin the open stretch, or open one ------------
        if ctx is not None and ctx.ids == stat[0]:
            self._steady_fold(ctx)
        else:
            if ctx is not None:
                self._steady = None
                self._steady_exit(ctx)
            ctx = self._steady = _SteadyStretch(stat[0], state_ids, vecs)
        ctx.pin(groups, sizes.index(top), targets, self._filter_bank)
        self._steady_commit(window, stat, ctx, targets, moved, observable, bound)
        return True

    def _certified_pair_bound(
        self,
        vecs: List[List[float]],
        moved: Dict[int, List[float]],
        targets: List[int],
        steps: Dict[int, float],
    ) -> Optional[float]:
        """The pair bound after this window's moves, or None when a merge
        cannot be ruled out.  Decays once per moved state in group order;
        where the oracle would rescan, so does this, over the post-move
        vectors."""
        clusterer = self._clusterer
        assert clusterer is not None
        states = clusterer.states
        merge = clusterer.merge_threshold
        bound = states.peek_decayed_pair_bound([steps[t] for t in targets])
        if bound is None or not bound >= merge:
            bound = states.scanned_pair_bound(
                [moved.get(index, vector) for index, vector in enumerate(vecs)]
            )
            if not bound >= merge:
                return None
        return bound

    def _steady_commit(
        self,
        window: ObservationWindow,
        stat: tuple,
        ctx: "_SteadyStretch",
        targets: List[int],
        moved: Dict[int, List[float]],
        observable: int,
        bound: float,
    ) -> None:
        """Record one certified window: move the stretch's states, update
        the pin's unsettled filters in sensor-id order (a filter that
        settles leaves the list: its further updates would change
        nothing), feed the tracks and ``M_CO``, and log the window's
        result, whose identification, cluster update and raw alarms are
        built on first read."""
        clusterer = self._clusterer
        assert clusterer is not None
        clusterer.states.commit_pair_bound(bound)
        vecs = ctx.vecs
        visits = ctx.visits
        for target, new in moved.items():
            vecs[target] = new
            visits[target] += 1
        if targets != ctx.targets:
            ctx.retarget(targets)
        pattern = ctx.pattern
        assignments, correct, _ = pattern
        ctx.count += 1
        if len(ctx.groups) > 1:
            ctx.log.append((window.index, stat[2], pattern))
        self._n_windows += 1
        filters = self._filter_bank.filters
        changed = []
        unsettled = []
        for position in ctx.unsettled:
            raw = ctx.raws[position]
            sensor_id = ctx.ids[position]
            filt = filters[sensor_id]
            before = filt.active
            after = filt.update(raw)
            if after != before:
                changed.append(
                    FilterTransition(
                        sensor_id=sensor_id,
                        window_index=window.index,
                        raised=after,
                    )
                )
            if not filt.settled(raw):
                unsettled.append(position)
        ctx.unsettled = unsettled
        transitions = tuple(changed)
        for transition in transitions:
            if transition.raised:
                self.tracks.open_track(transition.sensor_id, window.index)
            else:
                self.tracks.close_track(transition.sensor_id, window.index)
        observable_id = ctx.state_ids[observable]
        self.tracks.record_window_batch(correct, ctx.ids, assignments)
        self.m_co.observe(correct, observable_id)
        self.correct_sequence.append(correct)
        self.observable_sequence.append(observable_id)
        self.results.append(
            _certified_result(
                window.index,
                transitions,
                clusterer.n_states,
                (pattern, ctx.ids, stat[2], observable_id),
            )
        )

    def _steady_fold(self, ctx: "_SteadyStretch") -> None:
        """Fold the current pin's raw-dependent deferred state into the
        live modules: the alarm-history runs and raw alarms in window
        order.  Runs before a re-pin's new raws apply, and at stretch
        exit."""
        if ctx.count:
            history = self._alarm_generator.history
            for sensor_id, raw in zip(ctx.ids, ctx.raws):
                history.setdefault(sensor_id, []).extend([raw] * ctx.count)
            ctx.count = 0
        if ctx.log:
            alarms = self._alarm_generator.alarms
            for window_index, order_first, pattern in ctx.log:
                alarms.extend(
                    _pattern_alarms(window_index, ctx.ids, order_first, pattern)
                )
            ctx.log = []

    def _steady_exit(self, ctx: "_SteadyStretch") -> None:
        """Fold the whole stretch back into the live modules: the
        Python-evolved state vectors and their visits, then the pin's
        deferred state (``_steady_fold``)."""
        assert self._clusterer is not None
        states = self._clusterer.states
        for state_id, vector, visits in zip(ctx.state_ids, ctx.vecs, ctx.visits):
            if visits:
                states.apply_steady_motion(state_id, vector, visits)
        self._steady_fold(ctx)

    def digest(self) -> str:
        """Content hash of everything the evaluation reads off a run.

        Covers the correct/observable state sequences, the M^CO model,
        every per-sensor track model, the resolved state vectors, and
        the per-sensor diagnoses.  Two runs produce the same digest iff
        they are observationally equivalent — this is what the parity
        suite and the scenario-cache correctness check compare.
        """
        import hashlib
        import json

        payload = {
            "n_windows": self._n_windows,
            "correct": self.correct_sequence,
            "observable": self.observable_sequence,
            "m_co": self.m_co.state_dict(),
            "tracks": [track.state_dict() for track in self.tracks.tracks],
            "states": {
                str(state_id): [repr(float(x)) for x in vector]
                for state_id, vector in sorted(self.state_vectors().items())
            },
            "diagnoses": {
                str(sensor_id): [
                    diagnosis.category.value,
                    diagnosis.anomaly_type.value,
                    repr(float(diagnosis.confidence)),
                ]
                for sensor_id, diagnosis in sorted(self.diagnose_all().items())
            },
        }
        # Supervision state joins the digest only when a supervisor
        # exists, so unsupervised digests stay bit-identical to the
        # pre-supervisor implementation.
        if self.supervisor is not None:
            payload["supervisor"] = self.supervisor.digest_payload()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Versioned JSON-ready checkpoint of the full pipeline state.

        See :mod:`repro.resilience.checkpoint`; ``restore(snapshot(p))``
        continues the run with identical downstream diagnoses.
        """
        from ..resilience.checkpoint import snapshot as _snapshot

        return _snapshot(self)

    @classmethod
    def restore(
        cls, payload: Dict[str, object], config: "Optional[PipelineConfig]" = None
    ) -> "DetectionPipeline":
        """Rebuild a pipeline from a :meth:`snapshot` document."""
        from ..resilience.checkpoint import restore as _restore

        return _restore(payload, config=config)

    # -- state access -----------------------------------------------------

    @property
    def n_windows(self) -> int:
        """Number of windows consumed (including skipped ones)."""
        return self._n_windows

    def state_vectors(self) -> Dict[int, np.ndarray]:
        """Every state id ever referenced -> its current attribute vector.

        Ids that were merged away resolve to their survivor's vector, so
        HMM snapshots recorded under old ids stay interpretable.
        """
        if self.clusterer is None:
            return {}
        vectors: Dict[int, np.ndarray] = {}
        referenced = set(self.m_co.state_ids) | set(self.m_co.symbol_ids)
        for track in self.tracks.tracks:
            referenced |= set(track.model.state_ids)
            referenced |= set(track.model.symbol_ids)
        referenced |= set(self.clusterer.states.state_ids)
        for state_id in referenced:
            if state_id < 0:  # the ⊥ symbol has no vector
                continue
            try:
                vectors[state_id] = self.clusterer.state_vector(state_id)
            except KeyError:
                continue
        return vectors

    # -- diagnosis -----------------------------------------------------------

    def _n_tracked_sensors(self) -> int:
        """Distinct sensors that ever had an error/attack track."""
        return len({t.sensor_id for t in self.tracks.tracks})

    def system_diagnosis(self) -> Diagnosis:
        """Classify the system-level condition from ``M_CO``.

        An attack-shaped ``B^CO`` corroborated by fewer tracked sensors
        than the configured coalition minimum is downgraded to NONE: the
        paper's attacks are coalition attacks, and a lone misbehaving
        sensor's leakage can mimic the structural signature (DESIGN.md
        §6).
        """
        diagnosis = classify_system(
            self.m_co, self.state_vectors(), self.config.classifier
        )
        if (
            diagnosis.is_attack
            and self._n_tracked_sensors()
            < self.config.classifier.min_attack_coalition
        ):
            evidence = dict(diagnosis.evidence)
            evidence["downgraded_attack"] = diagnosis.anomaly_type.value
            evidence["n_tracked_sensors"] = self._n_tracked_sensors()
            return Diagnosis(
                anomaly_type=AnomalyType.NONE,
                confidence=0.5,
                evidence=evidence,
            )
        return diagnosis

    def diagnose_sensor(self, sensor_id: int) -> Optional[Diagnosis]:
        """Classify the latest track of one sensor (None if never tracked)."""
        track = self.tracks.latest_track_for(sensor_id)
        if track is None:
            return None
        return classify_track(
            track,
            self.m_co,
            self.state_vectors(),
            self.config.classifier,
            n_tracked_sensors=self._n_tracked_sensors(),
        )

    def diagnose_all(self) -> Dict[int, Diagnosis]:
        """Classify every sensor that ever had a track."""
        diagnoses: Dict[int, Diagnosis] = {}
        for sensor_id in sorted({t.sensor_id for t in self.tracks.tracks}):
            diagnosis = self.diagnose_sensor(sensor_id)
            if diagnosis is not None:
                diagnoses[sensor_id] = diagnosis
        return diagnoses

    def track_for(self, sensor_id: int) -> Optional[ErrorAttackTrack]:
        """The latest error/attack track of a sensor, if any."""
        return self.tracks.latest_track_for(sensor_id)

    # -- user-facing models -------------------------------------------------

    def correct_model(self, prune: bool = True) -> MarkovModel:
        """``M_C`` — the error/attack-free environment dynamics (step 5)."""
        return self._sequence_model(self.correct_sequence, prune)

    def observable_model(self, prune: bool = True) -> MarkovModel:
        """``M_O`` — the dynamics of the environment as observed."""
        return self._sequence_model(self.observable_sequence, prune)

    def _sequence_model(self, sequence: List[int], prune: bool) -> MarkovModel:
        if not sequence:
            raise ValueError("no windows processed yet")
        resolved = (
            self.clusterer.states.resolve_batch(sequence)
            if self.clusterer is not None
            else list(sequence)
        )
        model = estimate_markov_model(resolved, self.state_vectors())
        if prune:
            model = model.prune(self.config.prune_visit_fraction)
        return model


#: The attribute holding a certified window's marker until first read.
_CERTIFIED = "_certified"

# CPython shares one attribute-key table among a class's instances and
# sizes each new instance's inline attribute slots from it, trimming
# its spare room as instances are created; an instance whose key no
# longer fits falls back to a full dict, twice the memory.  Entering
# every field and the marker now makes the layout the same whichever
# result a process builds first (say, a certified window right after a
# checkpoint restore).
_layout = WindowResult(window_index=0, skipped=True)
object.__setattr__(_layout, _CERTIFIED, None)
del _layout


def _certified_result(
    window_index: int,
    transitions: tuple,
    n_model_states: int,
    marker: tuple,
) -> WindowResult:
    """A certified stretch window's :class:`WindowResult`, built lazily.

    ``marker`` is ``(pattern, ids_sorted, order_first, observable)``: the
    window's partition pattern (assignments in sorted sensor order,
    correct state, majority size), its sorted sensor ids, their
    first-occurrence order and the observable state.  The result's
    identification, cluster update and raw alarms, which that marker
    implies, are built on their first read (:func:`_build_certified`).
    """
    result = object.__new__(WindowResult)
    set_field = object.__setattr__  # bypasses the frozen __setattr__
    set_field(result, "window_index", window_index)
    set_field(result, "skipped", False)
    set_field(result, "filter_transitions", transitions)
    set_field(result, "n_model_states", n_model_states)
    set_field(result, "learning_frozen", False)
    set_field(result, _CERTIFIED, marker)
    return result


def _build_certified(result: WindowResult) -> None:
    """Replace a certified result's marker by the identification,
    cluster update and raw alarms it implies."""
    pattern, ids_sorted, order_first, observable = getattr(result, _CERTIFIED)
    assignments, correct, majority_size = pattern
    identification = WindowIdentification(
        observable_state=observable,
        correct_state=correct,
        sensor_states={ids_sorted[p]: assignments[p] for p in order_first},
        majority_size=majority_size,
        n_sensors=len(ids_sorted),
    )
    cluster_update = ClusterUpdate(
        assignments=list(assignments),
        spawned=[],
        merged=[],
        sensor_assignments=list(assignments),
        observable_state=observable,
        mean_spawned=None,
    )
    raw_alarms = tuple(
        _pattern_alarms(result.window_index, ids_sorted, order_first, pattern)
    )
    set_field = object.__setattr__
    set_field(result, "identification", identification)
    set_field(result, "cluster_update", cluster_update)
    set_field(result, "raw_alarms", raw_alarms)
    object.__delattr__(result, _CERTIFIED)


def _group_means(
    rows: List[List[float]], groups: List[List[int]]
) -> List[List[float]]:
    """Eq. 5 group means, bit-equal to the oracle's
    ``np.mean(rows, axis=0)`` for two or more attributes: sequential
    column sums from 0.0 in row order (the accumulation that call
    performs on strided columns; a left fold, since ``sum`` may
    compensate), then one division."""
    return [
        [
            reduce(add, column, 0.0) / len(group)
            for column in zip(*[rows[p] for p in group])
        ]
        for group in groups
    ]


def _eq6_moves(
    vecs: List[List[float]],
    targets: List[int],
    goals: List[List[float]],
    alpha: float,
) -> "tuple[Dict[int, List[float]], Dict[int, float], Dict[int, float]]":
    """Eq. 6 in Python floats: each target state steps toward its
    group mean with the oracle's two roundings per element.  Returns
    the moved vectors, the step lengths (exactly as
    ``StateSet.update_vector`` measures them) and, per target, the
    largest step this window of any other state (0.0 when it moves
    alone), all keyed by ``vecs`` index.  The last comes from the
    window's two largest steps: the runner-up for the leader, the
    leader for every other target (a tie makes both the same)."""
    keep = 1.0 - alpha
    moved: Dict[int, List[float]] = {}
    steps: Dict[int, float] = {}
    leader = -1
    first = second = 0.0
    for target, goal in zip(targets, goals):
        new = []
        moved_sq = 0.0
        for c_t, g_t in zip(vecs[target], goal):
            value = keep * c_t + alpha * g_t
            new.append(value)
            step = value - c_t
            moved_sq += step * step
        moved[target] = new
        length = steps[target] = math.sqrt(moved_sq)
        if length > first:
            leader, first, second = target, length, first
        elif length > second:
            second = length
    others = {target: second if target == leader else first for target in steps}
    return moved, steps, others


def _certified_observable(
    overall_mean: np.ndarray,
    vecs: List[List[float]],
    moved: Dict[int, List[float]],
    threshold: float,
) -> Optional[int]:
    """Eq. 2 against the post-move states: the ``vecs`` index of the
    overall mean's unique nearest state within ``threshold`` (so no
    mean spawn), or None when the margin cannot be certified."""
    overall = overall_mean.tolist()
    row = [
        math.dist(overall, moved.get(index, vector))
        for index, vector in enumerate(vecs)
    ]
    near = min(row)
    observable = row.index(near)
    row[observable] = math.inf
    second = min(row)
    pad = 1e-9 + 1e-12 * near
    if near + pad <= threshold and near + pad < second * (1.0 - 1e-12) - 1e-9:
        return observable
    return None


def _pattern_alarms(
    window_index: int,
    ids_sorted: Sequence[int],
    order_first: Sequence[int],
    pattern: tuple,
) -> List[RawAlarm]:
    """The raw alarms of one certified stretch window, in the window's
    first-occurrence sensor order (``AlarmGenerator.process``'s)."""
    assignments, correct, _ = pattern
    return [
        RawAlarm(
            window_index=window_index,
            sensor_id=ids_sorted[p],
            sensor_state=assignments[p],
            correct_state=correct,
        )
        for p in order_first
        if assignments[p] != correct
    ]


def _window_stats(
    window: ObservationWindow, scratch: "Optional[dict]" = None
) -> "Optional[tuple]":
    """One window's entry of :func:`_batched_window_means`, standalone.

    Returns exactly the tuple ``_batched_window_means([window])[0]``
    returns, field for field, from one grouped pass and no whole-batch
    set-up.  One window's sorted sensor alphabet and first-occurrence
    order come from a plain dict over its few ids, its codes from one
    ``searchsorted``, and its sensor means from the batched kernel's
    ``bincount`` sums.  The Eq. 2 overall mean is an ``axis=0`` reduce,
    which over an ``ArrayWindow``'s row-major matrix adds each column
    sequentially from 0.0, exactly as ``bincount`` does.  The group mean
    and the spread run in Python floats with the same sequential adds
    (squared norms column by column, in order, like the batched
    kernel's).  A non-finite sensor mean makes its column's sum
    non-finite, so the means are swept for finiteness only when a sum
    is not finite.  The caller holds ``np.errstate(over="ignore")`` (the
    overall reduce may overflow).  ``scratch``: see
    :func:`_batched_window_means`.
    """
    if not isinstance(window, ArrayWindow):
        return None
    obs = window.observations
    n_rows, n_attributes = obs.shape
    if n_rows == 0:
        return None
    ids = window.sensor_id_array
    first_seen = list(dict.fromkeys(ids.tolist()))
    sensor_ids = sorted(first_seen)
    id_array = np.array(sensor_ids, dtype=np.int64)
    n_codes = len(sensor_ids)
    counts, sums = grouped_sums(
        np.searchsorted(id_array, ids), obs, n_codes, scratch
    )
    means = sums / counts[:, None]
    rows = means.tolist()
    totals = [0.0] * n_attributes
    for row in rows:
        for t, value in enumerate(row):
            totals[t] += value
    if not all(map(math.isfinite, totals)) and not np.isfinite(means).all():
        return None
    rank = {sensor_id: k for k, sensor_id in enumerate(sensor_ids)}
    order_first = [rank[sensor_id] for sensor_id in first_seen]
    if n_attributes < 2:
        return (sensor_ids, means, order_first, None, None, None)
    overall = obs.sum(axis=0)
    overall /= n_rows
    point = overall.tolist()
    if not all(map(math.isfinite, point)):
        return None
    rows.append(point)
    centre = [total / n_codes for total in totals]
    # The largest squared distance to the centre; its root is the
    # batched kernel's max of roots (sqrt is monotone).  Finite points
    # make no NaN here.
    widest = 0.0
    for row in rows:
        square = 0.0
        for value, mid in zip(row, centre):
            diff = value - mid
            square += diff * diff
        if square > widest:
            widest = square
    return (
        sensor_ids,
        means,
        order_first,
        overall,
        np.array(centre),
        math.sqrt(widest),
    )


def _batched_window_means(
    windows: Sequence[ObservationWindow],
    scratch: "Optional[dict]" = None,
) -> "List[Optional[tuple]]":
    """Whole-trace per-window per-sensor means in one grouped pass.

    Returns one entry per window: ``(sorted_sensor_ids, means_matrix,
    first_occurrence_order, overall_mean, full_group_mean, spread)``
    where ``means_matrix`` rows follow ``sorted_sensor_ids`` (a
    plain-int list), ``first_occurrence_order`` permutes sorted positions
    into the window's first-occurrence order (the dict order
    ``ArrayWindow.per_sensor_mean`` produces), ``overall_mean`` is the
    window's Eq. 2 mean and ``spread`` the largest distance from a
    sensor mean or the overall mean to ``full_group_mean`` (the last
    three ``None`` for single-attribute traces, which compute the mean
    per window) — or the whole entry is ``None`` when
    the window must go through ``DetectionPipeline._sanitize`` instead
    (message-backed, empty, or holding any non-finite mean).

    Bit-identity with the per-window path: every group's sum is an
    ``np.bincount`` accumulation over the same values in the same row
    order (bincount adds sequentially in input order, so grouping per
    trace or per window yields the same float), divided by the same
    counts (:func:`repro.core.kernels.grouped_sums` keeps that
    accumulation order).  ``scratch`` is the caller's private buffer
    dict for the one grouped-sum pass whose result does not escape this
    call; callers that interleave multiple engines must each own their
    dict (never share one across instances).
    """
    stats: List[Optional[tuple]] = [None] * len(windows)
    keep = [
        i
        for i, window in enumerate(windows)
        if isinstance(window, ArrayWindow) and window.observations.shape[0] > 0
    ]
    if not keep:
        return stats
    ids_all = np.concatenate([windows[i].sensor_id_array for i in keep])
    obs_all = np.vstack([windows[i].observations for i in keep])
    lengths = [windows[i].observations.shape[0] for i in keep]
    window_of = np.repeat(np.arange(len(keep)), lengths)
    unique_ids, codes = np.unique(ids_all, return_inverse=True)
    n_codes = len(unique_ids)
    keys = window_of * n_codes + codes
    total = len(keep) * n_codes
    # ``sums`` never escapes this call (``means`` below is a fresh
    # fancy-indexed quotient), so its buffer may recycle through the
    # caller's private scratch dict.
    counts, sums = grouped_sums(keys, obs_all, total, scratch)
    present, first_rows = np.unique(keys, return_index=True)
    means = sums[present] / counts[present][:, None]
    # Finiteness is always resolved here (one bulk pass) so the fused
    # loop can hand the clusterer pre-certified inputs: windows with any
    # non-finite mean take the per-window slow lane, where the oracle's
    # own sanitize/raise behaviour applies verbatim.
    finite_ok = np.isfinite(means).all(axis=1)
    n_attributes = obs_all.shape[1]
    if n_attributes >= 2:
        # ``mean(axis=0)`` over a C-order (N, d>=2) matrix reduces each
        # column over *strided* data, which NumPy sums sequentially —
        # the same order ``bincount`` accumulates — so these grouped
        # overall means are bit-identical to the per-window
        # ``window.overall_mean()`` calls they replace.  (A d == 1
        # column is contiguous and takes pairwise summation instead,
        # so those windows compute their mean per window.)
        # These grouped results escape into per-window stats tuples, so
        # they must own fresh arrays: no scratch.
        row_counts = np.asarray(lengths, dtype=np.int64)
        _, overall = grouped_sums(window_of, obs_all, len(keep), None)
        overall /= row_counts[:, None]
        overall_finite = np.isfinite(overall).all(axis=1)
        # Mean of each window's per-sensor means (the Eq. 6 group mean
        # whenever a window's rows all land in one state — the healthy
        # steady state).  Same strided-sequential == bincount argument as
        # above; ``present`` is ascending, so rows group in order.
        group_of = present // n_codes
        rows_per, group_means = grouped_sums(
            group_of, means, len(keep), None
        )
        group_means /= rows_per[:, None]
    else:
        overall = None
        overall_finite = None
        group_means = None
    bounds = np.searchsorted(present, np.arange(len(keep) + 1) * n_codes)
    # One bulk reduction each; per-window re-checks only run on the rare
    # trace that actually contains a non-finite mean.
    all_finite = bool(finite_ok.all())
    all_overall_finite = overall_finite is None or bool(overall_finite.all())
    if overall is not None:
        # Per-window point spread: the largest distance from the window
        # centroid (the group mean) to any of the window's points —
        # sensor means and the overall mean.  One whole-trace kernel;
        # the stretch certifier turns it into a one-group window's spawn
        # and assignment bounds via the triangle inequality without
        # ever touching the point arrays again.  Overflow/NaN just disables
        # certification for that window (comparisons come out False).
        with np.errstate(over="ignore", invalid="ignore"):
            sdist = np.sqrt(_squared_norms(means - group_means[group_of]))
            spread = np.maximum.reduceat(sdist, bounds[:-1])
            odist = np.sqrt(_squared_norms(overall - group_means))
            np.maximum(spread, odist, out=spread)
        spreads = spread.tolist()
    else:
        spreads = None
    if all_finite and all_overall_finite and len(present) == total:
        # Uniform fast path: every window heard every sensor, so each
        # window's id block is the full sorted alphabet.  Share one id
        # list/array across all windows and batch the per-window
        # first-occurrence argsorts into a single axis-1 call (stable
        # sort over exact ints — identical rows to per-window calls).
        sensor_ids = unique_ids.astype(np.int64, copy=False).tolist()
        order_lists = np.argsort(
            first_rows.reshape(len(keep), n_codes), axis=1, kind="stable"
        ).tolist()
        for k, i in enumerate(keep):
            a = k * n_codes
            stats[i] = (
                sensor_ids,
                means[a : a + n_codes],
                order_lists[k],
                overall[k] if overall is not None else None,
                group_means[k] if group_means is not None else None,
                spreads[k] if spreads is not None else None,
            )
        return stats
    for k, i in enumerate(keep):
        a, b = bounds[k], bounds[k + 1]
        if not all_finite and not bool(finite_ok[a:b].all()):
            continue  # slow lane: per-window sanitize handles these
        if (
            not all_overall_finite
            and overall_finite is not None
            and not bool(overall_finite[k])
        ):
            continue  # slow lane: the oracle raises on a non-finite mean
        sensor_ids = (
            unique_ids[present[a:b] - k * n_codes]
            .astype(np.int64, copy=False)
            .tolist()
        )
        order_first = np.argsort(first_rows[a:b], kind="stable").tolist()
        stats[i] = (
            sensor_ids,
            means[a:b],
            order_first,
            overall[k] if overall is not None else None,
            group_means[k] if group_means is not None else None,
            spreads[k] if spreads is not None else None,
        )
    return stats


def _squared_norms(diff: np.ndarray) -> np.ndarray:
    """Row-wise squared norms of an ``(n, d)`` matrix, summed column by
    column in order: the accumulation :func:`_window_stats` repeats in
    Python floats (``einsum`` may reorder the adds for d >= 3)."""
    squares = diff[:, 0] * diff[:, 0]
    for column in range(1, diff.shape[1]):
        squares += diff[:, column] * diff[:, column]
    return squares
