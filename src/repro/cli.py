"""Command-line interface: reproduce paper artefacts from the shell.

Usage (also available as ``python -m repro``)::

    python -m repro list
    python -m repro reproduce fig7 --days 21
    python -m repro reproduce table6 --days 21 --seed 2003
    python -m repro scenario stuck_at --days 14
    python -m repro scenario clean --checkpoint state.json
    python -m repro sweep a1
    python -m repro chaos --days 7 --crash-at 40 --crash-at 90
    python -m repro campaign clean stuck_at calibration --jobs 4
    python -m repro campaign clean stuck_at --journal runs/j1 --task-timeout 120
    python -m repro campaign clean stuck_at --jobs 2 --chaos-kill-prob 0.2
    python -m repro parity --days 3 --seed 7
    python -m repro fuzz --seeds 100
    python -m repro fuzz --seeds 5 --soak

``reproduce`` regenerates one paper table/figure and prints its ASCII
rendering; ``scenario`` runs one standard corruption scenario and prints
the per-sensor diagnoses (``--checkpoint`` also writes a restorable
pipeline checkpoint); ``sweep`` runs one ablation study; ``chaos`` runs
an infrastructure chaos campaign (bursty loss, delay/reordering,
duplication, clock skew, collector crash + checkpoint restart) and
prints the degradation report; ``campaign`` fans several scenarios
out across the fault-tolerant worker runtime (per-task retries with
backoff, deadlines via ``--task-timeout``, worker-crash recovery,
poison-spec quarantine — exits non-zero if any spec was quarantined —
and a durable resume journal via ``--journal``; the ``--chaos-*``
flags soak-test it with seeded worker-level faults) and prints one
verdict line each; ``parity`` replays a clean and a planted-fault trace
through the per-window oracle, the fused batch path and the streamed
fused step and exits non-zero unless digests, snapshots, and
per-window results match exactly; ``fuzz`` drives the pipeline with seeded adversarial streams
(NaN/Inf bursts, floods, coordinated corruption) and exits non-zero on
any crash, invariant violation, or checkpoint round-trip divergence.  Timing is not a CLI command: the end-to-end
benchmark is ``python3 bench/run.py`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from . import experiments
from .experiments import cached_scenario

#: artefact name -> (scenario name, callable taking a ScenarioRun).
_ARTEFACTS: Dict[str, "tuple[str, Callable]"] = {
    "table1": ("clean", lambda run: experiments.table1(run.config)),
    "fig6": ("clean", lambda run: experiments.figure6(run, day_index=8)),
    "fig7": ("clean", experiments.figure7),
    "fig8": ("faulty", experiments.figure8),
    "fig9": ("faulty", experiments.figure9),
    "fig12": ("faulty", experiments.figure12),
    "table2_3": ("faulty", experiments.table2_3),
    "table4_5": ("faulty", experiments.table4_5),
    "table6": ("deletion", experiments.table6),
    "table7": ("creation", experiments.table7),
}

#: ablation id -> zero-argument callable returning a renderable result.
_SWEEPS: Dict[str, Callable] = {
    "a1": experiments.window_size_sweep,
    "a2": experiments.learning_factor_sweep,
    "a3": experiments.compromised_fraction_sweep,
    "a4": experiments.filter_comparison,
    "a6": experiments.baseline_comparison,
    "a7": experiments.dynamic_change_study,
}

_SCENARIOS = (
    "clean",
    "faulty",
    "stuck_at",
    "calibration",
    "additive",
    "random_noise",
    "deletion",
    "creation",
    "change",
    "mixed",
)


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DSN'06 error-vs-attack paper artefacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available artefacts and scenarios")

    reproduce = sub.add_parser("reproduce", help="regenerate a paper artefact")
    reproduce.add_argument("artefact", choices=sorted(_ARTEFACTS))
    reproduce.add_argument("--days", type=int, default=21)
    reproduce.add_argument("--seed", type=int, default=2003)

    scenario = sub.add_parser("scenario", help="run a standard scenario")
    scenario.add_argument("name", choices=_SCENARIOS)
    scenario.add_argument("--days", type=int, default=14)
    scenario.add_argument("--seed", type=int, default=2003)
    scenario.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="also write the findings to PATH as JSON",
    )
    scenario.add_argument(
        "--incident-report",
        action="store_true",
        help="print the full operator incident report",
    )
    scenario.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write a restorable pipeline checkpoint to PATH as JSON",
    )

    sweep = sub.add_parser("sweep", help="run an ablation study")
    sweep.add_argument("id", choices=sorted(_SWEEPS))

    chaos = sub.add_parser("chaos", help="run an infrastructure chaos campaign")
    chaos.add_argument("--days", type=int, default=7)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--no-burst",
        action="store_true",
        help="disable the Gilbert-Elliott bursty loss process",
    )
    chaos.add_argument(
        "--loss-prob",
        type=float,
        default=0.15,
        help="i.i.d. packet loss used when the burst process is disabled",
    )
    chaos.add_argument("--corruption-prob", type=float, default=0.01)
    chaos.add_argument("--delay-prob", type=float, default=0.10)
    chaos.add_argument("--max-delay", type=float, default=90.0, metavar="MINUTES")
    chaos.add_argument("--duplicate-prob", type=float, default=0.05)
    chaos.add_argument(
        "--crash-at",
        type=int,
        action="append",
        default=None,
        metavar="WINDOW",
        help="kill the collector at this window index and restart from "
        "the latest checkpoint (repeatable)",
    )
    chaos.add_argument(
        "--checkpoint-every",
        type=int,
        default=5,
        metavar="WINDOWS",
        help="checkpoint cadence in processed windows",
    )
    chaos.add_argument(
        "--skew",
        action="append",
        default=None,
        metavar="SENSOR:MINUTES",
        help="give one mote a skewed clock, e.g. --skew 2:-90 (repeatable)",
    )

    campaign = sub.add_parser(
        "campaign", help="run several scenarios across worker processes"
    )
    campaign.add_argument("names", nargs="+", choices=_SCENARIOS)
    campaign.add_argument("--days", type=int, default=14)
    campaign.add_argument("--seed", type=int, default=2003)
    campaign.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes (0 = all cores, 1 = serial in-process)",
    )
    campaign.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "scenario trace cache directory: reruns load generated "
            "traces instead of re-simulating (identical results)"
        ),
    )
    campaign.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "durable campaign journal directory: an append-only JSONL "
            "write-ahead log; rerunning with the same DIR resumes an "
            "interrupted campaign, replaying completed specs "
            "exactly-once and executing only the remainder"
        ),
    )
    campaign.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per spec after its first failed attempt; a spec "
        "that fails every retry is quarantined, not fatal (default 2)",
    )
    campaign.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt deadline; a task past it is declared hung, "
        "its pool is rebuilt, and the attempt counts as a failure "
        "(default: no deadline; enforced only with --jobs >= 2)",
    )
    campaign.add_argument(
        "--backoff-base",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="first retry delay; doubles per attempt with "
        "deterministic jitter (default 0.05)",
    )
    campaign.add_argument(
        "--chaos-kill-prob",
        type=float,
        default=0.0,
        metavar="P",
        help="worker chaos: per-attempt probability the worker process "
        "is SIGKILLed (soak-tests the recovery path)",
    )
    campaign.add_argument(
        "--chaos-hang-prob",
        type=float,
        default=0.0,
        metavar="P",
        help="worker chaos: per-attempt probability the task hangs "
        "(pair with --task-timeout)",
    )
    campaign.add_argument(
        "--chaos-exception-prob",
        type=float,
        default=0.0,
        metavar="P",
        help="worker chaos: per-attempt probability the task raises",
    )
    campaign.add_argument(
        "--chaos-hang-seconds",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="how long an injected hang sleeps (default 600)",
    )
    campaign.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the deterministic worker-chaos draws",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="adversarially fuzz the pipeline with pathological streams",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=25, help="independent fuzz seeds to run"
    )
    fuzz.add_argument(
        "--windows",
        type=int,
        default=None,
        help="windows per seed (default 80, or 400 with --soak)",
    )
    fuzz.add_argument(
        "--soak",
        action="store_true",
        help="soak variant: longer streams per seed",
    )
    fuzz.add_argument("--base-seed", type=int, default=0)
    fuzz.add_argument(
        "--mode",
        choices=("warn", "repair", "raise"),
        default="warn",
        help="supervisor mode under test",
    )

    parity = sub.add_parser(
        "parity",
        help="verify the fused batch and streaming paths are "
        "bit-identical to the per-window oracle",
    )
    parity.add_argument("--days", type=int, default=3)
    parity.add_argument("--seed", type=int, default=7)

    return parser


def _cmd_list() -> str:
    lines = ["artefacts:"]
    lines += [f"  {name}" for name in sorted(_ARTEFACTS)]
    lines.append("scenarios:")
    lines += [f"  {name}" for name in _SCENARIOS]
    lines.append("sweeps:")
    lines += [f"  {name}" for name in sorted(_SWEEPS)]
    return "\n".join(lines)


def _cmd_reproduce(artefact: str, days: int, seed: int) -> str:
    scenario_name, build = _ARTEFACTS[artefact]
    run = cached_scenario(scenario_name, n_days=days, seed=seed)
    return build(run).render()


def _cmd_scenario(
    name: str,
    days: int,
    seed: int,
    save: Optional[str] = None,
    full_report: bool = False,
    checkpoint: Optional[str] = None,
) -> str:
    run = cached_scenario(name, n_days=days, seed=seed)
    pipeline = run.pipeline
    if save is not None:
        from .analysis.serialization import save_report

        save_report(pipeline, save)
    if checkpoint is not None:
        from .resilience.checkpoint import save_checkpoint

        save_checkpoint(pipeline, checkpoint)
    if full_report:
        from .analysis.incident import incident_report

        return incident_report(pipeline, title=f"Incident report — {name}")
    lines = [f"scenario {name}: {pipeline.n_windows} windows processed"]
    system = pipeline.system_diagnosis()
    lines.append(f"system verdict: {system.anomaly_type.value}")
    truth = run.ground_truth
    if truth:
        lines.append(f"ground truth: {truth}")
    diagnoses = pipeline.diagnose_all()
    if diagnoses:
        lines.append("per-sensor diagnoses:")
        for sensor_id, diagnosis in diagnoses.items():
            lines.append(
                f"  sensor {sensor_id}: {diagnosis.category.value} / "
                f"{diagnosis.anomaly_type.value} "
                f"(confidence {diagnosis.confidence:.2f})"
            )
    else:
        lines.append("per-sensor diagnoses: none")
    model = pipeline.correct_model()
    lines.append(
        "M_C states: " + ", ".join(model.label(s) for s in model.state_ids)
    )
    return "\n".join(lines)


def _parse_skews(entries: Optional[List[str]]) -> Dict[int, float]:
    skews: Dict[int, float] = {}
    for entry in entries or ():
        sensor_text, _, minutes_text = entry.partition(":")
        try:
            skews[int(sensor_text)] = float(minutes_text)
        except ValueError:
            raise SystemExit(
                f"--skew expects SENSOR:MINUTES (e.g. 2:-90), got {entry!r}"
            )
    return skews


def _cmd_chaos(args: argparse.Namespace) -> "tuple[str, int]":
    from .resilience.chaos import ChaosSpec, run_chaos
    from .sensornet.network import GilbertElliottLoss

    spec = ChaosSpec(
        n_days=args.days,
        seed=args.seed,
        burst=None if args.no_burst else GilbertElliottLoss(),
        loss_probability=args.loss_prob,
        corruption_probability=args.corruption_prob,
        delay_probability=args.delay_prob,
        max_delay_minutes=args.max_delay,
        duplicate_probability=args.duplicate_prob,
        clock_skew_minutes=_parse_skews(args.skew),
        crash_at_windows=tuple(args.crash_at or ()),
        checkpoint_every_windows=args.checkpoint_every,
    )
    report, _ = run_chaos(spec)
    return report.render(), 0


def _cmd_campaign(args: argparse.Namespace) -> "tuple[str, int]":
    from .experiments.retry import RetryPolicy
    from .experiments.runner import ScenarioSpec, run_campaign

    chaos = None
    if (
        args.chaos_kill_prob
        or args.chaos_hang_prob
        or args.chaos_exception_prob
    ):
        from .resilience.chaos import WorkerChaos

        chaos = WorkerChaos(
            kill_probability=args.chaos_kill_prob,
            hang_probability=args.chaos_hang_prob,
            exception_probability=args.chaos_exception_prob,
            hang_seconds=args.chaos_hang_seconds,
            seed=args.chaos_seed,
        )
    policy = RetryPolicy(
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        backoff_base=args.backoff_base,
    )
    specs = [
        ScenarioSpec(name=name, n_days=args.days, seed=args.seed)
        for name in args.names
    ]
    try:
        report = run_campaign(
            specs,
            n_jobs=args.jobs,
            cache_dir=args.cache_dir,
            policy=policy,
            chaos=chaos,
            journal_dir=args.journal,
        )
    except KeyboardInterrupt:
        lines = ["campaign interrupted"]
        if args.journal is not None:
            lines.append(
                f"journal flushed to {args.journal}; rerun the same "
                "command to resume (completed specs are skipped)"
            )
        else:
            lines.append(
                "no --journal was given, so finished work is lost; "
                "use --journal DIR to make campaigns resumable"
            )
        return "\n".join(lines), 130
    outcomes = report.outcomes
    lines = [
        f"campaign: {len(outcomes)} scenarios, {args.days} days, "
        f"seed {args.seed}, jobs {args.jobs if args.jobs else 'all'}"
    ]
    for outcome in outcomes:
        if outcome.quarantined:
            reason = outcome.error.splitlines()[0]
            lines.append(
                f"  {outcome.name}: QUARANTINED after "
                f"{outcome.attempts} attempts ({reason})"
            )
            continue
        flagged = ", ".join(
            f"{sensor}:{kind}" for sensor, (_, kind, _) in
            sorted(outcome.sensor_diagnoses.items())
        ) or "none"
        lines.append(
            f"  {outcome.name}: system={outcome.system_diagnosis} "
            f"sensors=[{flagged}] windows={outcome.n_windows} "
            f"digest={outcome.digest[:12]}"
        )
    if args.cache_dir is not None:
        hits = sum(1 for outcome in outcomes if outcome.from_cache)
        lines.append(f"cache: hits={hits} misses={len(outcomes) - hits}")
    if (
        report.n_retries
        or report.n_journal_skips
        or report.quarantined
        or args.journal is not None
        or chaos is not None
    ):
        lines.append(report.stats_line())
    return "\n".join(lines), 0 if report.ok else 1


def _parity_traces(n_days: int, seed: int) -> list:
    """``(name, trace)`` pairs the parity gate replays.

    A clean GDI trace, and the same deployment with a planted fault
    regime from a third of the way in: one stuck-at sensor (dropping
    half its packets, so the sensor population changes too) next to a
    deletion coalition of a third of the network.  The second trace is
    what drives split windows — a fixed sensor→state partition — through
    the fused engine.
    """
    from .experiments.scenarios import ATTACK_FRACTION
    from .faults.attacks import DynamicDeletionAttack
    from .faults.base import ActivationSchedule
    from .faults.campaign import CampaignSpec, choose_compromised
    from .faults.errors import PacketDropper, StuckAtFault
    from .traces import GDITraceConfig, generate_gdi_trace_columnar
    from .traces.gdi import build_environment

    trace_config = GDITraceConfig(n_days=n_days, seed=seed)
    coalition = choose_compromised(
        range(trace_config.n_sensors), ATTACK_FRACTION, seed=seed
    )
    stuck = min(set(range(trace_config.n_sensors)) - set(coalition))
    onset = ActivationSchedule(start_minutes=n_days * 24 * 60.0 / 3.0)
    plan = CampaignSpec(name="stuck_at+deletion")
    plan.plant(
        PacketDropper(
            inner=StuckAtFault(value=(15.0, 1.0)), drop_probability=0.5, seed=seed
        ),
        [stuck],
        onset,
    )
    plan.plant(DynamicDeletionAttack(), coalition, onset)
    injector = plan.build_injector(build_environment(trace_config))
    return [
        ("clean", generate_gdi_trace_columnar(trace_config)),
        ("faulted", generate_gdi_trace_columnar(trace_config, corruption=injector)),
    ]


def _cmd_parity(args: argparse.Namespace) -> "tuple[str, int]":
    """The ``repro parity`` implementation: (report text, exit code).

    Replays each trace of :func:`_parity_traces` (clean and faulted)
    through the per-window oracle (``_process_window_reference``), the
    fused batch path (``process_windows_fast``) and the streamed fused
    step (``process_window`` one window at a time, with a digest read
    mid-run that folds the live state back) for every alarm-filter kind
    crossed with every supervisor mode, and demands exact equality of
    the digest, the JSON snapshot, and each per-window result.  Any
    mismatch is a correctness bug in the fused engine, so the exit
    code is non-zero and CI blocks on it.  So is an unsupervised engine
    that certified no window of a trace: its results are counted while
    they still hold the certified marker, before any field is read, so
    the comparison cannot pass without exercising the certified lane.
    """
    from . import DetectionPipeline, PipelineConfig
    from .core.pipeline import _CERTIFIED
    from .traces import window_trace_columnar

    n_days, seed = args.days, args.seed
    lines = [f"fused-vs-oracle parity: {n_days} days, seed {seed}"]
    ok = True

    def _snapshot(pipeline: DetectionPipeline) -> str:
        return json.dumps(pipeline.snapshot(), sort_keys=True, default=str)

    def _tag(flag: bool) -> str:
        return "OK" if flag else "FAIL"

    for name, trace in _parity_traces(n_days, seed):
        for kind in ("k_of_n", "sprt", "cusum"):
            for mode in ("off", "warn", "repair"):
                config = PipelineConfig(filter_kind=kind, supervisor_mode=mode)
                windows = window_trace_columnar(trace, config.window_minutes)
                oracle = DetectionPipeline(config)
                oracle_results = [
                    oracle._process_window_reference(window)
                    for window in windows
                ]
                fused = DetectionPipeline(config)
                fused.process_windows_fast(windows)
                stream = DetectionPipeline(config)
                stream_results = []
                for position, window in enumerate(windows):
                    stream_results.append(stream.process_window(window))
                    if position == len(windows) // 2:
                        stream.digest()
                engines = [
                    ("fused", fused, fused.results),
                    ("stream", stream, stream_results),
                ]
                certified = {
                    engine: sum(hasattr(result, _CERTIFIED) for result in results)
                    for engine, _, results in engines
                }
                for engine, pipeline, results in engines:
                    digest_ok = oracle.digest() == pipeline.digest()
                    snapshot_ok = _snapshot(oracle) == _snapshot(pipeline)
                    results_ok = len(oracle_results) == len(results) and all(
                        a == b for a, b in zip(oracle_results, results)
                    )
                    line = (
                        f"  {name:<7} {engine:<6} {kind:<7} {mode:<7} "
                        f"digest={_tag(digest_ok)} "
                        f"snapshot={_tag(snapshot_ok)} "
                        f"results={_tag(results_ok)}"
                    )
                    ok = ok and digest_ok and snapshot_ok and results_ok
                    if mode == "off":
                        # Supervised engines never certify a window.
                        count = certified[engine]
                        ok = ok and count > 0
                        line += f" certified={count}" + ("" if count else " FAIL")
                    lines.append(line)
    lines.append("parity PASS" if ok else "parity FAIL")
    return "\n".join(lines), 0 if ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> "tuple[str, int]":
    from .resilience.fuzz import fuzz_command

    return fuzz_command(
        n_seeds=args.seeds,
        windows=args.windows,
        soak=args.soak,
        base_seed=args.base_seed,
        mode=args.mode,
    )


def _cmd_sweep(sweep_id: str) -> str:
    result = _SWEEPS[sweep_id]()
    if isinstance(result, tuple):  # classification_matrix-style pairs
        return "\n\n".join(part.render() for part in result if hasattr(part, "render"))
    return result.render()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(_cmd_list())
    elif args.command == "reproduce":
        print(_cmd_reproduce(args.artefact, args.days, args.seed))
    elif args.command == "scenario":
        print(
            _cmd_scenario(
                args.name,
                args.days,
                args.seed,
                save=args.save,
                full_report=args.incident_report,
                checkpoint=args.checkpoint,
            )
        )
    elif args.command == "sweep":
        print(_cmd_sweep(args.id))
    elif args.command == "chaos":
        text, code = _cmd_chaos(args)
        print(text)
        return code
    elif args.command == "campaign":
        text, code = _cmd_campaign(args)
        print(text)
        return code
    elif args.command == "parity":
        text, code = _cmd_parity(args)
        print(text)
        return code
    elif args.command == "fuzz":
        text, code = _cmd_fuzz(args)
        print(text)
        return code
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
