"""Streaming ``process_window`` vs the per-window oracle: exact or fail.

``process_window`` runs the fused engine one window at a time, keeping
its vector filter bank and any certified steady stretch live across
calls and folding them back (``_sync``) before anything reads pipeline
state.  These tests pin that step to the oracle
``_process_window_reference`` with exact ``==`` on digests, JSON
snapshots and per-window results: round-robin deployments, reads and
checkpoints taken mid-stretch, partition stretches (a faulty sensor in
its own state next to the majority), re-pins and stretches opened by
the window-derived certificate, sensor means within 1e-9 of a decision
boundary, supervised modes, the oracle fallback of a custom filter
factory, the slow lane of message-backed and non-finite windows, the
one-window stats kernel itself, and the results of certified windows,
which build their fields on first read.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DetectionPipeline, PipelineConfig, WindowResult
from repro.core.filtering import FilterBank, KOfNFilter
from repro.core.pipeline import _CERTIFIED, _batched_window_means, _window_stats
from repro.faults.attacks import (
    DynamicCreationAttack,
    DynamicDeletionAttack,
    MixedAttack,
)
from repro.faults.base import ActivationSchedule
from repro.faults.campaign import CampaignSpec
from repro.faults.errors import (
    AdditiveFault,
    CalibrationFault,
    DriftFault,
    PacketDropper,
    StuckAtFault,
)
from repro.resilience.fuzz import PATHOLOGY_KINDS, pathological_window
from repro.sensornet.collector import ArrayWindow, windows_from_arrays
from repro.traces import (
    GDITraceConfig,
    generate_gdi_trace_columnar,
    window_trace_columnar,
)
from repro.traces.gdi import build_environment

#: Day 2 onset: every plan is active for most of a 7-day deployment.
ONSET = ActivationSchedule(start_minutes=2 * 24 * 60.0)

ATTACKERS = [1, 5, 8]


def _plan(kind: str, seed: int):
    """The eight deployment plans of the stream benchmark (None = clean)."""
    sensor = seed % 10
    corruptors = {
        "stuck_at": (
            PacketDropper(
                inner=StuckAtFault(value=(15.0, 1.0)),
                drop_probability=0.5,
                seed=seed,
            ),
            [sensor],
        ),
        "calibration": (CalibrationFault(gains=(1.0 / 1.24, 1.16)), [sensor]),
        "additive": (AdditiveFault(offsets=(6.0, 12.0)), [sensor]),
        "drift": (
            DriftFault(terminal=(15.0, 1.0), ramp_minutes=24 * 60.0),
            [sensor],
        ),
        "deletion": (DynamicDeletionAttack(), ATTACKERS),
        "creation": (DynamicCreationAttack(trigger=(12.0, 94.0)), ATTACKERS),
        "mixed": (MixedAttack(), ATTACKERS),
    }
    if kind == "none":
        return None
    corruptor, sensors = corruptors[kind]
    plan = CampaignSpec(name=kind)
    plan.plant(corruptor, sensors, ONSET)
    return plan


PLAN_KINDS = (
    "none",
    "stuck_at",
    "calibration",
    "additive",
    "drift",
    "deletion",
    "creation",
    "mixed",
)


def deployment_windows(kind: str, seed: int, n_days: int = 7):
    trace_config = GDITraceConfig(n_days=n_days, seed=seed)
    plan = _plan(kind, seed)
    injector = (
        plan.build_injector(build_environment(trace_config)) if plan else None
    )
    trace = generate_gdi_trace_columnar(trace_config, corruption=injector)
    return window_trace_columnar(trace, PipelineConfig().window_minutes)


def snapshot_json(pipeline: DetectionPipeline) -> str:
    return json.dumps(pipeline.snapshot(), sort_keys=True, default=str)


def run_oracle(config: PipelineConfig, windows):
    oracle = DetectionPipeline(config)
    results = [oracle._process_window_reference(w) for w in windows]
    return oracle, results


def assert_identical(ours, our_results, oracle, oracle_results) -> None:
    assert ours.digest() == oracle.digest()
    assert snapshot_json(ours) == snapshot_json(oracle)
    assert len(our_results) == len(oracle_results)
    for mine, theirs in zip(our_results, oracle_results):
        assert mine == theirs


def hostile_windows(n_attributes: int = 2, seed: int = 0, n_windows: int = 240):
    """Level jumps, sensor dropouts and empty windows (array-backed)."""
    rng = np.random.default_rng(seed)
    ts, sids, vals = [], [], []
    for index in range(1, n_windows + 1):
        if index % 57 == 0:
            continue  # an empty window mid-trace
        level = 20.0 + 15.0 * ((index // 30) % 3)
        base = np.array([level, 70.0 - level / 2.0, level / 10.0])[:n_attributes]
        for sensor in range(8):
            if (index + sensor) % 41 == 0:
                continue  # sensor dropout: population changes
            for sample in range(3):
                ts.append((index - 1) * 60.0 + 1.0 + sensor * 1e-3 + sample)
                sids.append(sensor)
                vals.append(base + rng.normal(0.0, 0.3, n_attributes))
    ts_arr = np.asarray(ts, dtype=float)
    sid_arr = np.asarray(sids)
    val_arr = np.asarray(vals, dtype=float)
    order = np.lexsort((sid_arr, ts_arr))
    return windows_from_arrays(ts_arr[order], sid_arr[order], val_arr[order], 60.0)


def as_array_window(window) -> ArrayWindow:
    """The same readings as an array-backed window."""
    return ArrayWindow(
        index=window.index,
        start_minutes=window.start_minutes,
        end_minutes=window.end_minutes,
        observations=np.asarray(window.observations, dtype=float),
        sensor_id_array=np.asarray(window.sensor_ids, dtype=np.int64),
        n_attributes=window.n_attributes,
    )


def fuzz_corpus(n_windows: int = 120, seed: int = 3):
    rng = np.random.default_rng(seed)
    kinds = list(PATHOLOGY_KINDS)
    return [
        pathological_window(index, kinds[index % len(kinds)], rng)
        for index in range(1, n_windows + 1)
    ]


def stream_with_reads(pipeline: DetectionPipeline, windows, read) -> tuple:
    """Stream ``windows``; call ``read`` at some windows inside a stretch.

    Returns the per-window results and how many reads hit an open
    steady stretch (so a test can prove it exercised that case).
    """
    results = []
    reads = 0
    for position, window in enumerate(windows):
        results.append(pipeline.process_window(window))
        if pipeline._steady is not None and position % 7 == 0:
            read(pipeline)
            reads += 1
    return results, reads


class TestRoundRobinDeployments:
    def test_eight_plans_round_robin(self):
        # (a) eight 7-day deployments, one per bench plan, arriving
        # interleaved the way the on-the-fly collector delivers them.
        deployments = [
            deployment_windows(kind, seed=20 + index)
            for index, kind in enumerate(PLAN_KINDS)
        ]
        config = PipelineConfig()
        streams = [DetectionPipeline(config) for _ in deployments]
        stream_results = [[] for _ in deployments]
        stretched = 0
        for position in range(max(len(w) for w in deployments)):
            for index, windows in enumerate(deployments):
                if position < len(windows):
                    pipeline = streams[index]
                    stream_results[index].append(
                        pipeline.process_window(windows[position])
                    )
                    stretched += pipeline._steady is not None
        assert stretched > 0  # stretches stayed open across calls
        for index, windows in enumerate(deployments):
            oracle, oracle_results = run_oracle(config, windows)
            assert_identical(
                streams[index], stream_results[index], oracle, oracle_results
            )

    @pytest.mark.parametrize("kind", ("k_of_n", "sprt", "cusum"))
    def test_filter_kinds(self, kind):
        windows = deployment_windows("stuck_at", seed=5, n_days=3)
        config = PipelineConfig(filter_kind=kind)
        stream = DetectionPipeline(config)
        results = [stream.process_window(w) for w in windows]
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(stream, results, oracle, oracle_results)


class TestReadsMidStretch:
    @pytest.mark.parametrize(
        "read",
        (
            lambda p: p.digest(),
            lambda p: p.diagnose_all(),
            lambda p: p.snapshot(),
            lambda p: p.filter_bank.active_sensors(),
        ),
        ids=("digest", "diagnose_all", "snapshot", "filter_bank"),
    )
    def test_read_does_not_change_the_run(self, read):
        # (b) reads taken inside an open stretch: the run continues
        # exactly as if nobody had looked.
        windows = deployment_windows("calibration", seed=31)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        results, reads = stream_with_reads(pipeline, windows, read)
        assert reads > 0
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_state_readers_fold_the_stretch(self):
        # Readers of deferred state end the open stretch; the scalar
        # filter bank accessor also folds and drops the vector bank.
        windows = iter(deployment_windows("none", seed=34, n_days=3))
        pipeline = DetectionPipeline()
        for read in (
            lambda p: p.digest(),
            lambda p: p.snapshot(),
            lambda p: p.state_vectors(),
            lambda p: p.clusterer,
            lambda p: p.alarm_generator,
        ):
            for window in windows:
                pipeline.process_window(window)
                if pipeline._steady is not None:
                    break
            assert pipeline._steady is not None
            read(pipeline)
            assert pipeline._steady is None
        assert pipeline._vector_bank is not None
        pipeline.filter_bank
        assert pipeline._vector_bank is None

    def test_restore_mid_stretch_continues_identically(self):
        # (c) a checkpoint taken inside a stretch resumes bit-exactly.
        windows = deployment_windows("deletion", seed=32)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        split = None
        for position, window in enumerate(windows):
            pipeline.process_window(window)
            if pipeline._steady is not None and position >= len(windows) // 3:
                split = position + 1
                break
        assert split is not None
        resumed = DetectionPipeline.restore(
            json.loads(snapshot_json(pipeline)), config=config
        )
        tail = [resumed.process_window(w) for w in windows[split:]]
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(resumed, tail, oracle, oracle_results[split:])


class TestSupervisedAndFallback:
    @pytest.mark.parametrize("mode", ("warn", "repair"))
    def test_supervisor_modes(self, mode):
        # (d) supervised pipelines stream through the fused step too.
        config = PipelineConfig(supervisor_mode=mode)
        for windows in (hostile_windows(), deployment_windows("mixed", 33, 3)):
            stream = DetectionPipeline(config)
            results = [stream.process_window(w) for w in windows]
            oracle, oracle_results = run_oracle(config, windows)
            assert_identical(stream, results, oracle, oracle_results)

    def test_custom_filter_factory_takes_the_oracle(self):
        # (e) a filter the vector bank cannot mirror (a subclass may
        # override ``update``): every window runs the oracle, and no
        # live vector bank is ever built.
        class Sticky(KOfNFilter):
            pass

        windows = hostile_windows(seed=4)
        stream = DetectionPipeline()
        oracle = DetectionPipeline()
        stream.filter_bank = FilterBank(factory=lambda: Sticky(k=2, n=3))
        oracle.filter_bank = FilterBank(factory=lambda: Sticky(k=2, n=3))
        results = [stream.process_window(w) for w in windows]
        assert stream._scalar_only and stream._vector_bank is None
        oracle_results = [oracle._process_window_reference(w) for w in windows]
        assert_identical(stream, results, oracle, oracle_results)

    def test_message_and_non_finite_windows_take_the_slow_lane(self):
        # (f) message-backed windows never get fused stats; array
        # windows holding a non-finite mean neither.  Both still stream
        # exactly like the oracle, supervised or not.
        corpus = fuzz_corpus()
        assert all(_window_stats(w) is None for w in corpus)
        non_finite = [
            as_array_window(w)
            for w in corpus
            if w.observations.size and not np.isfinite(w.observations).all()
        ]
        assert non_finite
        assert all(_window_stats(w) is None for w in non_finite)
        mixed = [
            as_array_window(w) if position % 2 else w
            for position, w in enumerate(corpus)
        ]
        for mode in ("off", "repair"):
            config = PipelineConfig(supervisor_mode=mode)
            for windows in (corpus, mixed):
                stream = DetectionPipeline(config)
                results = [stream.process_window(w) for w in windows]
                oracle, oracle_results = run_oracle(config, windows)
                assert_identical(stream, results, oracle, oracle_results)


def partition_open(pipeline: DetectionPipeline) -> bool:
    """True while a certified stretch over two or more state groups is open."""
    return pipeline._steady is not None and len(pipeline._steady.groups) > 1


#: Synthetic environment state and a distant fault position (farther
#: than ``spawn_threshold`` apart, so a faulty sensor gets its own state).
HOME = (20.0, 60.0)
FAR = (45.0, 20.0)


def scripted_windows(
    script, n_windows: int = 120, n_sensors: int = 8, noise: float = 0.3
):
    """Array windows whose sensor positions follow ``script``.

    ``script(index, sensor)`` gives the sensor's true position in window
    ``index``, or None when the sensor is silent that window; readings
    add N(0, ``noise``) noise, three per sensor and window.
    """
    rng = np.random.default_rng(0)
    ts, sids, vals = [], [], []
    for index in range(1, n_windows + 1):
        for sensor in range(n_sensors):
            base = script(index, sensor)
            if base is None:
                continue
            for sample in range(3):
                ts.append((index - 1) * 60.0 + 1.0 + sensor * 1e-3 + sample)
                sids.append(sensor)
                vals.append(np.asarray(base) + rng.normal(0.0, noise, 2))
    ts_arr = np.asarray(ts, dtype=float)
    sid_arr = np.asarray(sids)
    val_arr = np.asarray(vals, dtype=float)
    order = np.lexsort((sid_arr, ts_arr))
    return windows_from_arrays(ts_arr[order], sid_arr[order], val_arr[order], 60.0)


def stuck_pair(index: int, sensor: int):
    """Sensors 2 and 5 stuck at ``FAR`` from window 30 on."""
    return FAR if sensor in (2, 5) and index >= 30 else HOME


class TestPartitionStretches:
    """Stretches whose certified windows keep a split partition."""

    @pytest.mark.parametrize(
        "read",
        (
            lambda p: p.digest(),
            lambda p: p.snapshot(),
            lambda p: p.diagnose_all(),
            lambda p: p.filter_bank.active_sensors(),
            lambda p: list(p.alarm_generator.alarms),
        ),
        ids=("digest", "snapshot", "diagnose_all", "filter_bank", "alarms"),
    )
    def test_read_mid_partition_stretch(self, read):
        windows = deployment_windows("stuck_at", seed=41)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        results = []
        reads = 0
        for position, window in enumerate(windows):
            results.append(pipeline.process_window(window))
            if partition_open(pipeline) and position % 5 == 0:
                read(pipeline)
                reads += 1
        assert reads > 0
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_restore_mid_partition_stretch(self):
        windows = deployment_windows("deletion", seed=42)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        split = None
        for position, window in enumerate(windows):
            pipeline.process_window(window)
            if partition_open(pipeline) and pipeline._steady.count >= 2:
                split = position + 1
                break
        assert split is not None
        resumed = DetectionPipeline.restore(
            json.loads(snapshot_json(pipeline)), config=config
        )
        tail = [resumed.process_window(w) for w in windows[split:]]
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(resumed, tail, oracle, oracle_results[split:])

    def test_k_of_n_raise_inside_certified_window(self):
        # The stuck pair's filters trip two windows after the split
        # partition opens its stretch: inside a certified window, which
        # must open both tracks before recording into them.
        windows = scripted_windows(stuck_pair)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        results = []
        raised_in_stretch = []
        for window in windows:
            before = pipeline._steady
            results.append(pipeline.process_window(window))
            certified = before is not None and pipeline._steady is before
            if certified and len(before.groups) > 1:
                raised_in_stretch.extend(
                    t.sensor_id
                    for t in results[-1].filter_transitions
                    if t.raised
                )
        assert sorted(raised_in_stretch) == [2, 5]
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    @pytest.mark.parametrize("kind", ("sprt", "cusum"))
    def test_sprt_and_cusum_never_quiesce(self, kind):
        windows = deployment_windows("stuck_at", seed=43)
        config = PipelineConfig(filter_kind=kind)
        pipeline = DetectionPipeline(config)
        results = []
        opened = 0
        for window in windows:
            results.append(pipeline.process_window(window))
            if partition_open(pipeline):
                opened += 1
                assert pipeline._steady.flips is None
        assert opened > 0
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_majority_tie_falls_back(self):
        # A 6/2 split opens a partition stretch; from window 60 the
        # network splits 4/4, a tied majority no stretch may certify.
        def tie(index, sensor):
            if sensor < 2 and index >= 30 or sensor < 4 and index >= 60:
                return FAR
            return HOME

        windows = scripted_windows(tie)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        results = []
        opened = 0
        for window in windows:
            results.append(pipeline.process_window(window))
            if window.index < 60:
                opened += partition_open(pipeline)
            else:
                assert pipeline._steady is None
        assert opened > 0
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_sensor_dropout_ends_the_stretch(self):
        def dropout(index, sensor):
            return None if sensor == 6 and index == 70 else stuck_pair(index, sensor)

        windows = scripted_windows(dropout)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        results = []
        ended = False
        for window in windows:
            before = pipeline._steady
            results.append(pipeline.process_window(window))
            if window.index == 70:
                assert before is not None and len(before.groups) > 1
                ended = pipeline._steady is not before
        assert ended
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)


def stream_pins(pipeline: DetectionPipeline, windows, after=None) -> tuple:
    """Stream ``windows`` one at a time, noting how stretches changed.

    Returns the results, the indices of windows that re-pinned the open
    stretch in place (same stretch, new ``groups``) and the indices of
    windows that opened a stretch by certificate.  ``after(pipeline,
    window_index, repinned)`` runs after every window.
    """
    results, repinned, opened = [], [], []
    for window in windows:
        before = pipeline._steady
        groups = before.groups if before is not None else None
        results.append(pipeline.process_window(window))
        now = pipeline._steady
        repin = now is not None and now is before and now.groups is not groups
        if repin:
            repinned.append(window.index)
        elif now is not None and now is not before:
            opened.append(window.index)
        if after is not None:
            after(pipeline, window.index, repin)
    return results, repinned, opened


#: A third position, far from both HOME and FAR.
NORTH = (20.0, 95.0)


def migrating(index: int, sensor: int):
    """The stuck pair, joined by sensor 6 from window 60 on."""
    return FAR if sensor == 6 and index >= 60 else stuck_pair(index, sensor)


def lagging_coalition(index: int, sensor: int):
    """Sensors 1, 4 and 7 at NORTH (windows 20-39), at FAR (40-69),
    back at NORTH from window 70 — sensor 7 one window late."""
    if sensor not in (1, 4, 7) or index < 20:
        return HOME
    if index < 40 or index >= (71 if sensor == 7 else 70):
        return NORTH
    return FAR


class TestRepinAndCertificateEntry:
    """The window-derived certificate: partition changes re-pin the open
    stretch in place, and certified windows open stretches directly."""

    def test_sensor_migrates_into_the_faulty_state(self):
        windows = scripted_windows(migrating)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        results, repinned, _ = stream_pins(pipeline, windows)
        assert 60 in repinned
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_coalition_retargets_with_a_lagging_sensor(self):
        # Window 70 splits the coalition over two states (three groups),
        # window 71 reunites it in its new state: two re-pins in a row.
        windows = scripted_windows(lagging_coalition)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        results, repinned, _ = stream_pins(pipeline, windows)
        assert {70, 71} <= set(repinned)
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_stretch_opens_right_after_a_spawn(self):
        # Window 30 spawns the stuck pair's state in a full step (which
        # never opens a stretch); window 31 opens one by certificate.
        windows = scripted_windows(stuck_pair)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        open_after = {}
        results, _, opened = stream_pins(
            pipeline,
            windows,
            lambda p, index, _: open_after.setdefault(index, p._steady),
        )
        assert results[29].cluster_update.spawned
        assert open_after[30] is None
        assert 31 in opened and len(open_after[31].groups) == 2
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_raw_flip_under_saturated_k_of_n(self):
        # By window 60 the split stretch has deferred more than n k-of-n
        # updates (every ring saturated at its raw) and its alarm-history
        # runs; sensor 6's raw flips, so both fold before the new raws
        # apply, and the new pin plans sensor 6's raise three updates on.
        windows = scripted_windows(migrating)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        results = []
        for window in windows:
            before = pipeline._steady
            if window.index == 60:
                assert before is not None and before.flips is not None
                assert before.filter_count >= config.filter_n
                assert before.count > 0
                flipped = before.raws.copy()
            results.append(pipeline.process_window(window))
            if window.index == 60:
                assert pipeline._steady is before
                assert (before.raws != flipped).tolist() == [
                    sensor == 6 for sensor in range(8)
                ]
                assert before.filter_count == 1 and before.count == 1
                assert before.flips == {config.filter_k - 1: [(6, True)]}
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    @pytest.mark.parametrize(
        "read",
        (
            lambda p: p.digest(),
            lambda p: p.snapshot(),
            lambda p: p.diagnose_all(),
            lambda p: p.filter_bank.active_sensors(),
            lambda p: list(p.alarm_generator.alarms),
        ),
        ids=("digest", "snapshot", "diagnose_all", "filter_bank", "alarms"),
    )
    def test_read_right_after_a_repin(self, read):
        windows = scripted_windows(lagging_coalition)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        reads = []

        def after(p, index, repinned):
            if repinned:
                read(p)
                reads.append(index)

        results, _, _ = stream_pins(pipeline, windows, after)
        assert reads
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_restore_right_after_a_repin(self):
        windows = scripted_windows(migrating)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        split = None
        for position, window in enumerate(windows):
            before = pipeline._steady
            groups = before.groups if before is not None else None
            pipeline.process_window(window)
            if before is not None and pipeline._steady is before and (
                before.groups is not groups
            ):
                split = position + 1
                break
        assert split is not None
        resumed = DetectionPipeline.restore(
            json.loads(snapshot_json(pipeline)), config=config
        )
        tail = [resumed.process_window(w) for w in windows[split:]]
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(resumed, tail, oracle, oracle_results[split:])

    @pytest.mark.parametrize("kind", ("sprt", "cusum"))
    def test_sprt_and_cusum(self, kind):
        windows = scripted_windows(migrating)
        config = PipelineConfig(filter_kind=kind)
        pipeline = DetectionPipeline(config)
        results, repinned, _ = stream_pins(
            pipeline,
            windows,
            lambda p, index, _: p._steady is None or p._steady.flips is None
            or pytest.fail("a non-k-of-n bank deferred its updates"),
        )
        assert 60 in repinned
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_new_sensor_opens_an_unplanned_stretch(self):
        # Sensor 8 first reports in window 50, inside a split stretch:
        # the window certifies and opens a stretch over the new sensor
        # set, and the grown k-of-n bank (out of lockstep) runs live.
        def newcomer(index, sensor):
            if sensor == 8:
                return HOME if index >= 50 else None
            return stuck_pair(index, sensor)

        windows = scripted_windows(newcomer, n_sensors=9)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        open_after = {}
        results, _, opened = stream_pins(
            pipeline,
            windows,
            lambda p, index, _: open_after.setdefault(index, p._steady),
        )
        assert open_after[49] is not None and 50 in opened
        assert len(open_after[50].ids) == 9 and open_after[50].flips is None
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_tied_majority_takes_the_full_step(self):
        # A 5/3 split stretch; sensor 3 joins the minority at window 60,
        # a 4/4 tie that neither certificate may certify.
        def tie(index, sensor):
            if sensor < 3 and index >= 30 or sensor == 3 and index >= 60:
                return FAR
            return HOME

        windows = scripted_windows(tie)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        open_after = {}
        results, _, _ = stream_pins(
            pipeline,
            windows,
            lambda p, index, _: open_after.setdefault(index, p._steady),
        )
        assert len(open_after[59].groups) == 2
        assert all(open_after[index] is None for index in range(60, 121))
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(pipeline, results, oracle, oracle_results)

    def test_post_move_flip_takes_the_full_step(self):
        # Sensor 5 sits 0.05 nearer state A than state B, but A's Eq. 6
        # step (its group jumped away) leaves it nearer B afterwards: the
        # pre-update and final assignments differ, which only the full
        # step reproduces.
        west, east = (20.0, 60.0), (34.0, 60.0)

        def flip(index, sensor):
            if sensor >= 6 and index >= 10:
                return east
            if index == 41:
                return (26.95, 60.0) if sensor == 5 else (17.0, 60.0)
            return west

        windows = scripted_windows(flip, n_windows=60, noise=0.0)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        open_after = {}
        results, _, _ = stream_pins(
            pipeline,
            windows,
            lambda p, index, _: open_after.setdefault(index, p._steady),
        )
        oracle, oracle_results = run_oracle(config, windows)
        update = oracle_results[40].cluster_update
        assert update.assignments[5] != update.sensor_assignments[5]
        assert open_after[40] is not None and open_after[41] is None
        assert_identical(pipeline, results, oracle, oracle_results)


class TestBoundaryProperty:
    """Sensor means within 1e-9 of a decision boundary: the streamed and
    batched fused engines still equal the oracle exactly."""

    @given(
        kind=st.sampled_from(("voronoi", "spawn", "merge")),
        eps=st.floats(-1e-9, 1e-9),
        sensor=st.integers(0, 5),
        at=st.integers(2, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_means_at_a_boundary(self, kind, eps, sensor, at):
        # States west and east, seeded exactly.  ``voronoi``: one sensor
        # at their midpoint in window ``at``; ``spawn``: one sensor at
        # ``spawn_threshold`` from west; ``merge``: the two states sit
        # ``merge_threshold`` apart throughout.  Readings are noiseless,
        # so every mean lands exactly where the script puts it.
        config = PipelineConfig()
        west = np.array([20.0, 60.0])
        gap = config.merge_threshold + eps if kind == "merge" else 14.0
        east = west + [gap, 0.0]
        moved = {
            "voronoi": (west + east) / 2.0 + [eps, 0.0],
            "spawn": west + [0.0, config.spawn_threshold + eps],
            "merge": west,
        }[kind]

        def script(index, s):
            if s >= 6:
                return east
            return moved if index == at and s == sensor else west

        windows = scripted_windows(script, n_windows=12, noise=0.0)
        oracle, stream, batch = (
            DetectionPipeline(config, initial_states=[west, east])
            for _ in range(3)
        )
        oracle_results = [oracle._process_window_reference(w) for w in windows]
        stream_results = [stream.process_window(w) for w in windows]
        batch.process_windows_fast(windows)
        assert_identical(stream, stream_results, oracle, oracle_results)
        assert_identical(batch, batch.results, oracle, oracle_results)


def assert_same_stats(ours, theirs) -> None:
    if theirs is None:
        assert ours is None
        return
    assert ours is not None and len(ours) == len(theirs)
    for mine, reference in zip(ours, theirs):
        if isinstance(reference, np.ndarray):
            assert isinstance(mine, np.ndarray)
            assert mine.dtype == reference.dtype
            assert mine.shape == reference.shape
            assert np.array_equal(mine, reference, equal_nan=True)
        elif isinstance(reference, float) and math.isnan(reference):
            assert isinstance(mine, float) and math.isnan(mine)
        else:
            assert mine == reference and type(mine) is type(reference)


class TestWindowStatsKernel:
    def test_fuzz_corpus(self):
        # (g) field by field, on every pathology (as array windows).
        corpus = [as_array_window(w) for w in fuzz_corpus(n_windows=180)]
        for window in corpus:
            assert_same_stats(
                _window_stats(window), _batched_window_means([window])[0]
            )

    @pytest.mark.parametrize("n_attributes", (1, 2, 3))
    def test_trace_windows(self, n_attributes):
        windows = hostile_windows(n_attributes=n_attributes, seed=9)
        batched = _batched_window_means(windows)
        for window, stat in zip(windows, batched):
            assert_same_stats(_window_stats(window), stat)
            assert_same_stats(_window_stats(window), _batched_window_means([window])[0])

    def test_single_attribute_streams_like_the_oracle(self):
        windows = hostile_windows(n_attributes=1, seed=3)
        config = PipelineConfig()
        stream = DetectionPipeline(config)
        results = [stream.process_window(w) for w in windows]
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(stream, results, oracle, oracle_results)


def stats_bits(stat):
    """A stats entry with every float as its exact bits (-0.0 != 0.0)."""
    if stat is None:
        return None
    bits = []
    for field in stat:
        if isinstance(field, np.ndarray):
            bits.append((field.dtype.str, field.shape, field.tobytes()))
        elif isinstance(field, float):
            bits.append(("float", struct.pack("<d", field)))
        else:
            bits.append((type(field).__name__, field))
    return bits


def both_kernels(window) -> tuple:
    """The lean kernel's and the batched kernel's entry for ``window``,
    under the fp state ``process_window`` holds."""
    with np.errstate(over="ignore"):
        return _window_stats(window), _batched_window_means([window])[0]


def array_window(sensor_ids, rows, n_attributes: int) -> ArrayWindow:
    return ArrayWindow(
        index=1,
        start_minutes=0.0,
        end_minutes=60.0,
        observations=np.array(rows, dtype=float).reshape(len(sensor_ids), -1),
        sensor_id_array=np.array(sensor_ids, dtype=np.int64),
        n_attributes=n_attributes,
    )


#: Edge windows for the lean kernel's shortcuts: ``(sensor ids in row
#: order, first-column readings, whether the kernel certifies it)``.
#: The other columns get ordinary readings.
EDGE_WINDOWS = {
    # Sorted by id the means run +, +, -, -: the group sum overflows,
    # while the overall sum (row order +, -, +, -) stays finite.
    "group-sum-overflows": ([0, 2, 1, 3], [1e308, -1e308, 1e308, -1e308], True),
    # Sorted means run +, -, +, -; the row-order overall sum overflows.
    "overall-sum-overflows": ([0, 2, 1, 3], [1e308, 1e308, -1e308, -1e308], False),
    "sensor-sum-overflows": ([4, 4, 1], [1e308, 1e308, 2.0], False),
    "nan-reading": ([0, 1, 1], [1.0, math.nan, 2.0], False),
    "negative-zero": ([3, 1, 3, 2, 1], [-0.0] * 5, True),
    "one-sensor": ([7, 7, 7, 7], [20.0, 20.5, 19.5, 21.0], True),
    "one-reading": ([5], [-3.25], True),
    "unsorted-extreme-ids": (
        [2**62, -5, 3, -(2**62), 3, 2**62, 0, -5],
        [21.0, 19.0, 1e300, -1e300, 22.5, 20.25, -0.0, 18.0],
        True,
    ),
}


class TestLeanStatsKernel:
    """``_window_stats`` equals ``_batched_window_means([w])[0]`` bit for
    bit on windows its shortcuts could get wrong."""

    @pytest.mark.parametrize("n_attributes", (1, 2, 3, 5))
    @pytest.mark.parametrize("case", sorted(EDGE_WINDOWS))
    def test_edge_windows(self, case, n_attributes):
        sensor_ids, first, certified = EDGE_WINDOWS[case]
        rng = np.random.default_rng(len(case))
        rows = [
            [value] + list(rng.normal(30.0, 5.0, n_attributes - 1))
            for value in first
        ]
        if case == "negative-zero":
            rows = [[-0.0] * n_attributes for _ in first]
        window = array_window(sensor_ids, rows, n_attributes)
        ours, theirs = both_kernels(window)
        assert stats_bits(ours) == stats_bits(theirs)
        # Single-attribute windows never compute the overall mean, so
        # only a sensor-level overflow or NaN keeps them out.
        assert (ours is not None) == (
            certified or (n_attributes == 1 and case == "overall-sum-overflows")
        )
        if case == "group-sum-overflows" and n_attributes > 1:
            assert math.isinf(ours[5][0]) and math.isinf(ours[6])

    @pytest.mark.parametrize("n_attributes", (1, 2, 3, 5))
    def test_random_windows(self, n_attributes):
        # Magnitudes spread over many decades, so any reordered add
        # (pairwise sums, einsum's unrolled norms) would show.
        rng = np.random.default_rng(n_attributes)
        for _ in range(200):
            n_rows = int(rng.integers(1, 160))
            ids = rng.integers(-3, 12, n_rows)
            values = rng.normal(0.0, 1.0, (n_rows, n_attributes))
            values *= 10.0 ** rng.integers(-6, 7, (n_rows, 1))
            ours, theirs = both_kernels(array_window(ids, values, n_attributes))
            assert ours is not None
            assert stats_bits(ours) == stats_bits(theirs)

    @pytest.mark.parametrize("layout", ("fortran", "column-strided"))
    def test_overall_mean_is_layout_independent(self, layout):
        rng = np.random.default_rng(5)
        values = rng.normal(20.0, 5.0, (96, 4)) * 10.0 ** rng.integers(
            -3, 4, (96, 1)
        )
        if layout == "fortran":
            observations = np.asfortranarray(values[:, :2])
        else:
            observations = values[:, ::2]
        window = ArrayWindow(1, 0.0, 60.0, observations, np.arange(96) % 8, 2)
        assert window.observations.flags.c_contiguous
        assert np.array_equal(window.observations, observations)
        ours, theirs = both_kernels(window)
        assert window.overall_mean().tobytes() == ours[4].tobytes()
        assert ours[4].tobytes() == theirs[4].tobytes()

    def test_trace_windows_stay_views(self):
        values = np.arange(24, dtype=float).reshape(12, 2)
        windows = windows_from_arrays(
            np.arange(12) * 10.0, np.arange(12) % 3, values, 60.0
        )
        assert all(
            np.shares_memory(window.observations, windows[0].observations.base)
            for window in windows
        )


def hash_outcome(result) -> object:
    """``hash(result)``, or the message of the TypeError it raises (a
    non-skipped result holds an unhashable sensor-state dict)."""
    try:
        return hash(result)
    except TypeError as exc:
        return str(exc)


def assert_result_like(mine, theirs) -> None:
    assert type(mine) is WindowResult and isinstance(mine, WindowResult)
    assert mine == theirs and theirs == mine
    assert repr(mine) == repr(theirs)
    assert hash_outcome(mine) == hash_outcome(theirs)
    assert pickle.dumps(mine) == pickle.dumps(theirs)
    assert pickle.loads(pickle.dumps(mine)) == theirs
    assert dataclasses.replace(mine) == theirs
    fields = dataclasses.fields(WindowResult)
    assert WindowResult(**{f.name: getattr(mine, f.name) for f in fields}) == theirs


def deferred(results) -> int:
    """How many results still hold a certified window's unbuilt marker."""
    return sum(hasattr(result, _CERTIFIED) for result in results)


FIRST_READS = {
    "eq": lambda r, o: r == o,
    "repr": lambda r, o: repr(r),
    "hash": lambda r, o: hash_outcome(r),
    "pickle": lambda r, o: pickle.dumps(r),
    "field": lambda r, o: r.raw_alarms,
    "property": lambda r, o: r.correct_state,
}


class TestCertifiedResults:
    """A certified window's ``WindowResult`` builds its identification,
    cluster update and raw alarms on first read, indistinguishably from
    the oracle's eager result."""

    @pytest.mark.parametrize("first_read", sorted(FIRST_READS))
    def test_first_read_long_after_the_window(self, first_read):
        windows = deployment_windows("deletion", seed=41, n_days=3)
        config = PipelineConfig()
        stream = DetectionPipeline(config)
        results = [stream.process_window(w) for w in windows]
        stream.digest()  # folds the stretch; results stay unbuilt
        assert deferred(results) > len(results) // 2
        oracle, oracle_results = run_oracle(config, windows)
        for mine, theirs in zip(results, oracle_results):
            FIRST_READS[first_read](mine, theirs)
        assert deferred(results) == 0
        for mine, theirs in zip(results, oracle_results):
            assert_result_like(mine, theirs)

    def test_read_mid_stretch_after_repin_and_after_exit(self):
        windows = scripted_windows(lagging_coalition)
        config = PipelineConfig()
        oracle, oracle_results = run_oracle(config, windows)
        pipeline = DetectionPipeline(config)
        seen = {"mid": 0, "repin": 0, "exit": 0}
        previous = [None]  # the stretch open before this window

        def after(p, index, repinned):
            now = p._steady
            if repinned:
                moment = "repin"
            elif previous[0] is not None and now is not previous[0]:
                moment = "exit"
            elif now is not None and index % 5 == 0:
                moment = "mid"
            else:
                moment = None
            previous[0] = now
            if moment is not None:
                seen[moment] += 1
                assert_result_like(p.results[-1], oracle_results[index - 1])

        results, _, _ = stream_pins(pipeline, windows, after)
        assert min(seen.values()) > 0
        assert_identical(pipeline, results, oracle, oracle_results)
        for mine, theirs in zip(results, oracle_results):
            assert_result_like(mine, theirs)

    def test_results_across_snapshot_and_restore(self):
        windows = deployment_windows("deletion", seed=32, n_days=3)
        config = PipelineConfig()
        pipeline = DetectionPipeline(config)
        split = None
        for position, window in enumerate(windows):
            pipeline.process_window(window)
            if pipeline._steady is not None and position >= len(windows) // 3:
                split = position + 1
                break
        assert split is not None
        head = list(pipeline.results)
        assert deferred(head) > 0
        resumed = DetectionPipeline.restore(
            json.loads(snapshot_json(pipeline)), config=config
        )
        assert resumed.results == []
        tail = [resumed.process_window(w) for w in windows[split:]]
        # The snapshotted pipeline streams on, its early results unread.
        rest = [pipeline.process_window(w) for w in windows[split:]]
        assert deferred(head) > 0 and deferred(tail) > 0
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(resumed, tail, oracle, oracle_results[split:])
        assert_identical(pipeline, head + rest, oracle, oracle_results)
        for mine, theirs in zip(head + tail, oracle_results):
            assert_result_like(mine, theirs)

    @pytest.mark.parametrize("kind", ("k_of_n", "sprt", "cusum"))
    def test_batch_and_stream_results_per_filter_kind(self, kind):
        windows = deployment_windows("mixed", seed=43, n_days=3)
        config = PipelineConfig(filter_kind=kind)
        stream = DetectionPipeline(config)
        streamed = [stream.process_window(w) for w in windows]
        batch = DetectionPipeline(config)
        assert batch.process_windows_fast(windows) == len(windows)
        assert deferred(streamed) > 0 and deferred(batch.results) > 0
        oracle, oracle_results = run_oracle(config, windows)
        assert_identical(stream, streamed, oracle, oracle_results)
        assert_identical(batch, batch.results, oracle, oracle_results)
        for mine, batched, theirs in zip(streamed, batch.results, oracle_results):
            assert_result_like(mine, theirs)
            assert_result_like(batched, theirs)

    def test_results_stay_frozen(self):
        windows = deployment_windows("none", seed=44, n_days=1)
        pipeline = DetectionPipeline()
        pipeline.process_windows_fast(windows)
        result = pipeline.results[-1]
        assert hasattr(result, _CERTIFIED)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.identification = None
        assert result.identification is not None
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.raw_alarms = ()
