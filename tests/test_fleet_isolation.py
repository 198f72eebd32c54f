"""FleetEngine: containment, attribution, recovery, parity.

The fault-isolation layer must be invisible when nothing faults (every
tenant bit-identical to its solo ``process_windows_fast`` run) and
surgical when something does: the offending tenant quarantined with its
failure recorded, every other tenant still bit-identical to a clean
run.  Every parity assertion is exact ``==``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import DetectionPipeline, PipelineConfig
from repro.fleet import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    FleetEngine,
)
from repro.resilience.checkpoint import snapshot
from repro.resilience.fleet_chaos import FaultingWindow
from repro.resilience.invariants import Invariant
from repro.sensornet.collector import windows_from_arrays


def snapshot_json(pipeline: DetectionPipeline) -> str:
    return json.dumps(pipeline.snapshot(), sort_keys=True, default=str)


def regime_windows(
    seed: int,
    n_windows: int = 120,
    n_sensors: int = 6,
    dims: int = 2,
    dwell: int = 20,
    noise: float = 0.3,
):
    """Two-regime telemetry: the fleet engine's target workload."""
    rng = np.random.default_rng(seed)
    base = 10.0 + 5.0 * np.arange(dims)
    ts, sids, vals = [], [], []
    for index in range(1, n_windows + 1):
        hot = ((index - 1) // dwell) % 2
        truth = base + (12.0 if hot else 0.0)
        for sensor in range(n_sensors):
            ts.append((index - 1) * 60.0 + 1.0)
            sids.append(sensor)
            vals.append(truth + rng.normal(0, noise, dims))
    ts_arr = np.asarray(ts, dtype=float)
    sid_arr = np.asarray(sids)
    val_arr = np.asarray(vals, dtype=float)
    order = np.lexsort((sid_arr, ts_arr))
    return windows_from_arrays(
        ts_arr[order],
        sid_arr[order],
        val_arr[order],
        PipelineConfig().window_minutes,
    )


def solo_reference(windows, config=None):
    pipeline = DetectionPipeline(config or PipelineConfig(n_sensors=6))
    pipeline.process_windows_fast(windows)
    return pipeline


def poison_with_faults(windows, start: int, count: int):
    """Replace ``count`` windows from ``start`` with raising proxies."""
    poisoned = list(windows)
    for j in range(start, start + count):
        w = poisoned[j]
        poisoned[j] = FaultingWindow(w.index, w.start_minutes, w.end_minutes)
    return poisoned


# -- no-fault invisibility ---------------------------------------------------


def test_no_fault_run_is_bit_identical_to_solo():
    traces = [regime_windows(seed) for seed in range(4)]
    solos = [solo_reference(t) for t in traces]

    engine = FleetEngine(
        [DetectionPipeline(PipelineConfig(n_sensors=6)) for _ in traces],
        checkpoint_interval=40,
        probation=10,
    )
    consumed = engine.process_windows(traces)

    assert consumed == sum(len(t) for t in traces)
    for reference, tenant in zip(solos, engine.to_pipelines()):
        assert reference.digest() == tenant.digest()
        assert snapshot_json(reference) == snapshot_json(tenant)
    health = engine.health_report()
    assert health["statuses"] == [HEALTHY] * 4
    assert health["counters"]["quarantines"] == 0
    assert health["counters"]["epochs"] == 3  # 120 windows / interval 40


def test_state_dict_carries_fleet_health_telemetry():
    traces = [regime_windows(seed, n_windows=40) for seed in range(2)]
    engine = FleetEngine(
        [DetectionPipeline(PipelineConfig(n_sensors=6)) for _ in traces],
        checkpoint_interval=20,
    )
    engine.process_windows(traces)
    payload = engine.state_dict()
    health = payload["fleet_health"]
    assert health["statuses"] == [HEALTHY, HEALTHY]
    assert {"checkpoint_seconds", "rollback_seconds"} <= set(
        health["overhead_seconds"]
    )
    json.dumps(payload)  # telemetry must stay JSON-ready


# -- containment, attribution, bounded recovery ------------------------------


def test_injected_fault_quarantines_culprit_and_spares_survivors():
    traces = [regime_windows(seed) for seed in range(4)]
    solos = [solo_reference(t) for t in traces]
    burst_start, burst = 50, 5
    poisoned = poison_with_faults(traces[2], burst_start, burst)
    fleet_traces = [traces[0], traces[1], poisoned, traces[3]]

    engine = FleetEngine(
        [DetectionPipeline(PipelineConfig(n_sensors=6)) for _ in traces],
        checkpoint_interval=40,
        probation=10,
        max_recoveries=2,
    )
    consumed = engine.process_windows(fleet_traces)
    assert consumed == sum(len(t) for t in traces)  # skips count as consumed

    # Survivors: bit-identical to clean solo runs.
    tenants = engine.to_pipelines()
    for tid in (0, 1, 3):
        assert solos[tid].digest() == tenants[tid].digest()
        assert snapshot_json(solos[tid]) == snapshot_json(tenants[tid])

    # Culprit: quarantined once, faults recorded with kind and window
    # index, burst skipped during recovery, re-admitted after probation.
    record = engine.records[2]
    assert record.status == HEALTHY
    assert record.quarantines == 1
    assert record.readmissions == 1
    assert record.skipped_windows == burst
    assert record.recovery_attempts == 1
    kinds = {failure.kind for failure in record.failures}
    assert kinds == {"InjectedKernelFault"}
    fault_indices = {failure.window_index for failure in record.failures}
    poisoned_indices = {
        poisoned[j].index for j in range(burst_start, burst_start + burst)
    }
    assert fault_indices == poisoned_indices

    # The culprit's final state equals a solo run over the clean windows
    # (the faulting ones were skipped, everything else replayed exactly).
    clean = [
        w
        for j, w in enumerate(traces[2])
        if not burst_start <= j < burst_start + burst
    ]
    reference = solo_reference(clean)
    assert reference.digest() == tenants[2].digest()
    assert snapshot_json(reference) == snapshot_json(tenants[2])


def test_max_recoveries_exhaustion_parks_tenant_at_last_good_state():
    traces = [regime_windows(seed) for seed in range(3)]
    solos = [solo_reference(t) for t in traces]
    poisoned = poison_with_faults(traces[1], 50, 3)
    fleet_traces = [traces[0], poisoned, traces[2]]

    engine = FleetEngine(
        [DetectionPipeline(PipelineConfig(n_sensors=6)) for _ in traces],
        checkpoint_interval=40,
        probation=10,
        max_recoveries=0,  # first quarantine parks permanently
    )
    consumed = engine.process_windows(fleet_traces)
    # Parked tenant consumed only its first clean epoch; survivors all.
    assert consumed == 2 * 120 + 40

    record = engine.records[1]
    assert record.status == QUARANTINED
    assert record.quarantines == 1
    assert record.readmissions == 0
    assert record.skipped_windows == 0
    assert record.position == 40

    tenants = engine.to_pipelines()
    # Parked state is the epoch-boundary checkpoint: solo over 40 windows.
    reference = solo_reference(traces[1][:40])
    assert reference.digest() == tenants[1].digest()
    assert snapshot_json(reference) == snapshot_json(tenants[1])
    for tid in (0, 2):
        assert solos[tid].digest() == tenants[tid].digest()


def test_culprit_pinned_and_survivors_run_once_per_epoch(monkeypatch):
    # Attribution needs no search: the tenant whose call raised is the
    # culprit, a per-window replay pins the window, and no other tenant
    # is ever rolled back or replayed.
    traces = [regime_windows(seed) for seed in range(4)]
    position = 70
    poisoned = poison_with_faults(traces[1], position, 1)
    fault_index = poisoned[position].index

    calls = {}
    fused = DetectionPipeline.process_windows_fast

    def counting(self, windows):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return fused(self, windows)

    monkeypatch.setattr(DetectionPipeline, "process_windows_fast", counting)
    pipelines = [DetectionPipeline(PipelineConfig(n_sensors=6)) for _ in traces]
    engine = FleetEngine(
        pipelines, checkpoint_interval=40, probation=10, max_recoveries=0
    )
    engine.process_windows([traces[0], poisoned, traces[2], traces[3]])

    record = engine.records[1]
    assert record.status == QUARANTINED
    assert record.quarantines == 1
    assert [f.window_index for f in record.failures] == [fault_index]
    n_epochs = engine.health_report()["counters"]["epochs"]
    assert n_epochs == 3  # 120 windows / interval 40
    for tid in (0, 2, 3):
        assert engine.records[tid].status == HEALTHY
        assert calls[id(pipelines[tid])] == n_epochs


# -- degraded mode via the per-tenant supervisor -----------------------------


def taint_invariant():
    def check(pipeline):
        return ["synthetic taint"] if getattr(pipeline, "_taint", False) else []

    def repair(pipeline):
        pipeline._taint = False
        return ["cleared synthetic taint"]

    return Invariant(
        name="synthetic-taint",
        description="test-only repairable invariant",
        check=check,
        repair=repair,
    )


def test_repaired_violation_degrades_tenant_not_fleet():
    config = PipelineConfig(n_sensors=6, supervisor_mode="repair")
    traces = [regime_windows(seed) for seed in range(3)]

    def build(tainted: bool) -> DetectionPipeline:
        pipeline = DetectionPipeline(config)
        pipeline.supervisor.invariants = (
            *pipeline.supervisor.invariants,
            taint_invariant(),
        )
        if tainted:
            pipeline._taint = True
        return pipeline

    solos = []
    for tid, trace in enumerate(traces):
        reference = build(tainted=tid == 1)
        reference.process_windows_fast(trace)
        solos.append(reference)

    pipelines = [build(tainted=tid == 1) for tid in range(3)]
    engine = FleetEngine(
        pipelines, checkpoint_interval=40, probation=10
    )
    consumed = engine.process_windows(traces)
    assert consumed == sum(len(t) for t in traces)

    record = engine.records[1]
    assert record.degradations == 1
    assert record.quarantines == 0
    assert record.status == HEALTHY  # re-admitted after a clean probation
    assert record.readmissions == 1
    assert record.failures[0].kind == "invariant:synthetic-taint"

    # Degradation routes the tenant to its exact solo path: results stay
    # bit-identical to a plain supervised run, for it and the fleet.
    for reference, tenant in zip(solos, engine.to_pipelines()):
        assert reference.digest() == tenant.digest()
        assert snapshot_json(reference) == snapshot_json(tenant)
    assert engine.health_report()["counters"]["quarantines"] == 0


# -- checkpoint hygiene ------------------------------------------------------


def test_snapshot_shares_no_state_with_live_or_restored_pipeline():
    # The isolation layer stores snapshot dicts without serialising
    # them; that is only sound if the dict never mutates under the live
    # pipeline (or a pipeline restored from it) advancing.
    from repro.resilience.checkpoint import restore

    windows = regime_windows(9, n_windows=80)
    pipeline = DetectionPipeline(PipelineConfig(n_sensors=6))
    pipeline.process_windows_fast(windows[:40])

    stored = snapshot(pipeline)
    frozen = json.dumps(stored, sort_keys=True)

    pipeline.process_windows_fast(windows[40:])
    assert json.dumps(stored, sort_keys=True) == frozen

    restored = restore(stored)
    restored.process_windows_fast(windows[40:])
    assert json.dumps(stored, sort_keys=True) == frozen
    assert restored.digest() == pipeline.digest()


def test_constructor_rejects_bad_isolation_knobs():
    pipelines = [DetectionPipeline(PipelineConfig(n_sensors=6))]
    with pytest.raises(ValueError):
        FleetEngine(pipelines, checkpoint_interval=0)
    with pytest.raises(ValueError):
        FleetEngine(pipelines, probation=0)
    with pytest.raises(ValueError):
        FleetEngine(pipelines, max_recoveries=-1)


# -- adversarial harnesses and CLI surface -----------------------------------


def test_fleet_chaos_harness_quarantines_and_reports_ok():
    from repro.resilience import run_fleet_chaos

    report = run_fleet_chaos(
        n_tenants=4,
        n_poisoned=1,
        kinds=("exception",),
        seed=1,
        n_windows=80,
        burst=3,
        checkpoint_interval=20,
        probation=6,
    )
    assert report.ok
    assert report.survivors_ok
    assert len(report.victims) == 1
    (victim_tid,) = report.victims
    victim = next(o for o in report.outcomes if o.tid == victim_tid)
    assert victim.handled
    assert victim.quarantines >= 1
    assert "InjectedKernelFault" in victim.failure_kinds
    text = report.render()
    assert "verdict: OK" in text
    assert "survivors: bit-identical" in text


def test_fleet_chaos_is_seed_deterministic():
    from repro.resilience import run_fleet_chaos

    kwargs = dict(
        n_tenants=4,
        n_poisoned=1,
        kinds=("exception",),
        seed=7,
        n_windows=60,
        burst=2,
        checkpoint_interval=20,
        probation=6,
    )
    first = run_fleet_chaos(**kwargs)
    second = run_fleet_chaos(**kwargs)
    assert first.victims == second.victims
    assert [o.digest for o in first.outcomes] == [
        o.digest for o in second.outcomes
    ]


def test_fleet_fuzz_harness_smoke():
    from repro.resilience import run_fleet_fuzz

    report = run_fleet_fuzz(
        n_seeds=1, windows_per_seed=40, n_tenants=4, n_poisoned=1
    )
    assert report.ok
    assert "verdict: OK" in report.render()


def test_cli_parses_fleet_chaos_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "chaos",
            "--fleet",
            "--tenants",
            "8",
            "--poisoned",
            "2",
            "--kinds",
            "exploding,malformed,exception",
            "--fleet-seed",
            "3",
            "--fleet-windows",
            "240",
            "--checkpoint-interval",
            "64",
            "--probation",
            "12",
        ]
    )
    assert args.fleet is True
    assert args.tenants == 8
    assert args.poisoned == 2
    assert args.kinds == "exploding,malformed,exception"
    assert args.fleet_seed == 3
    assert args.fleet_windows == 240
    assert args.checkpoint_interval == 64
    assert args.probation == 12
    assert args.solo_reference is False

    args = build_parser().parse_args(["chaos", "--fleet", "--solo-reference"])
    assert args.solo_reference is True


def test_cli_parses_fleet_soak_and_fleet_fuzz_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["fleet-soak", "--seeds", "5", "--tenants", "6", "--poisoned", "2"]
    )
    assert args.command == "fleet-soak"
    assert args.seeds == 5
    assert args.tenants == 6
    assert args.poisoned == 2
    assert args.burst == 5  # shared poison-plan defaults ride along

    args = build_parser().parse_args(
        ["fuzz", "--fleet", "--seeds", "5", "--tenants", "6", "--poisoned", "2"]
    )
    assert args.command == "fuzz"
    assert args.fleet is True
    assert args.seeds == 5
    assert args.tenants == 6
    assert args.poisoned == 2


def test_cli_fleet_chaos_smoke(capsys):
    from repro.cli import main

    code = main(
        [
            "chaos",
            "--fleet",
            "--tenants",
            "4",
            "--poisoned",
            "1",
            "--kinds",
            "exception",
            "--fleet-seed",
            "1",
            "--fleet-windows",
            "60",
            "--burst",
            "2",
            "--checkpoint-interval",
            "20",
            "--probation",
            "6",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: OK" in out
    assert "survivors: bit-identical" in out
