"""End-to-end benchmark: generated scenario inputs -> verdicts, per layer.

Run from the repository root:

    python3 bench/run.py --workload campaign-hot --seed 2003 --seconds 12 --trace 0
    python3 bench/run.py --workload stream-online --trace 1   # per-layer split
    python3 bench/run.py                                       # every workload

One invocation measures one workload in this process (with no
``--workload``, each workload runs in a fresh child process, one after
another).  It sets the workload up several times and keeps the median
as ``setup_s``, then repeats passes until ``--seconds`` would be
exceeded and reports the median pass as ``verdict_s``.  Every timed
region sits between two host probes (``measure.probe``) and is
reported in reference-host seconds (``measure.host_normalized``); the
wall times are kept in the result file.  Every pass is checked against
an independent path and scored against the planted ground truth.  With
``--trace 1`` it also runs traced passes that wrap each layer's public
entry point (see ``spans.py``) and reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A result file with
the environment, every pass time, digests and verdicts goes to
``bench/results/`` (or ``--out``).  The exit code is 1 when any check
fails and 2 when there is no program to measure.
"""

from __future__ import annotations

import os

#: One BLAS/OpenMP thread: parallelism lives in campaign processes.  Set
#: before NumPy loads so this process and every child inherit it.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 2003
#: Fresh interpreters timed importing the program, as part of set-up.
IMPORT_PROBES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]], spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="spans JSONL path (with --trace 1)")
    parser.add_argument(
        "--quick", action="store_true", help="smoke size: 2 days, 1 pass, 16 tenants"
    )
    parser.add_argument("--out", help="result directory (default bench/results)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- processes ---------------------------------------------------------------


def child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(workdir)
    return env


def import_probe(workdir: Path) -> float:
    """Seconds a fresh interpreter takes to import the campaign stack."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.experiments"],
        env=child_env(workdir),
        check=True,
        timeout=120,
    )
    return time.perf_counter() - start


def settle(timeout: float = 60.0) -> None:
    """Quiesce between timed regions: pools shut down, garbage collected.

    ``run_campaign`` shuts its pool down without waiting; the pool's
    manager thread joins the workers, so joining it means they ended.
    Collecting here keeps one pass's garbage out of the next pass's time.
    """
    import multiprocessing

    for thread in threading.enumerate():
        # Non-daemon threads are the pool managers; they would also hold
        # up interpreter exit.
        if thread is not threading.main_thread() and not thread.daemon:
            thread.join(timeout)
    multiprocessing.active_children()  # reaps anything already finished
    gc.collect()


def stop_resource_tracker() -> None:
    """Stop, and wait for, the tracker process shared memory started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def environment(seed: int) -> dict:
    import numpy

    blas: Dict[str, object] = {}
    try:
        dependencies = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # NumPy without the dicts mode
        dependencies = {}
    for library in ("blas", "lapack"):
        entry = dependencies.get(library)
        if isinstance(entry, dict):
            blas[library] = {"name": entry.get("name"), "version": entry.get("version")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in THREAD_PINS},
        "seed": seed,
    }


# -- measuring one workload --------------------------------------------------


def check(passes, reference) -> Dict[str, str]:
    """Why each verdict is not certified, keyed ``pass N <id>`` or ``reference <id>``.

    A pass verdict is certified when it carries no error and its payload
    equals the reference's for the same deployment.
    """
    failures = {f"reference {r.id}": r.error for r in reference if r.error}
    by_id = {r.id: r for r in reference}
    for number, records in enumerate(passes):
        for record in records:
            if record.error:
                failures[f"pass {number} {record.id}"] = record.error
            elif record.id not in by_id or record.payload != by_id[record.id].payload:
                failures[f"pass {number} {record.id}"] = "differs from the reference"
        for absent in by_id.keys() - {record.id for record in records}:
            failures[f"pass {number} {absent}"] = "no verdict"
    return failures


def traced_passes(workload, untraced_pass_s, records_out):
    """Run the workload's traced passes; returns (layer metrics, tracers, missing).

    ``untraced_pass_s`` are the host-normalised untraced passes the
    tracing overhead is taken against.
    """
    import measure
    import spans

    layer: Dict[str, float] = {}
    tracers = []
    missing: List[str] = []
    for position, (tag, n_jobs) in enumerate(workload.trace_plan()):
        tracer = spans.Tracer(f"{workload.name}/{tag}")
        before = measure.probe()
        with spans.installed(tracer) as absent:
            start = time.perf_counter()
            raw = workload.run_pass(n_jobs)
            end = time.perf_counter()
        (traced_s,) = measure.host_normalized([end - start], [before, measure.probe()])
        missing = absent
        records_out.append(workload.records(raw))
        del raw
        settle()
        tracers.append(tracer)
        metrics = spans.layer_metrics(tracer, start, end)
        if position == 0:
            layer.update(metrics)
            baseline = statistics.median(untraced_pass_s)
            layer["bench.trace_overhead_pct"] = (traced_s / baseline - 1.0) * 100.0
        else:
            # Later passes exist for the parent-side transport spans only.
            layer.update(
                {k: v for k, v in metrics.items() if k.startswith("experiments.shm.")}
            )
    return layer, tracers, missing


def timed_reps(step, reps: int) -> "tuple[List[float], List[float]]":
    """Run ``step`` ``reps`` times between host probes: (wall s, probes)."""
    import measure

    wall: List[float] = []
    probes = [measure.probe()]
    for _ in range(reps):
        start = time.perf_counter()
        step()
        wall.append(time.perf_counter() - start)
        settle()
        probes.append(measure.probe())
    return wall, probes


def run_workload(args: argparse.Namespace, workdir: Path) -> "tuple[dict, list]":
    """Set up, measure and check one workload; returns (result, tracers)."""
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick, workdir)
    import_s, import_probes = timed_reps(
        lambda: import_probe(workdir), 1 if args.quick else IMPORT_PROBES
    )
    prepare_s, prepare_probes = timed_reps(
        workload.prepare, 1 if args.quick else workload.prepare_reps
    )

    # Traced runs compare against untraced passes of the traced shape:
    # campaigns go inline so every span lands in this process.
    n_jobs = workload.trace_plan()[0][1] if args.trace else workload.pass_jobs
    pass_s: List[float] = []
    passes = []
    pass_probes = [measure.probe()]
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        raw = workload.run_pass(n_jobs)
        pass_s.append(time.perf_counter() - start)
        passes.append(workload.records(raw))
        del raw
        settle()
        pass_probes.append(measure.probe())
        elapsed = time.perf_counter() - begin
        if args.quick or elapsed + statistics.median(pass_s) > args.seconds:
            break
    rss = peak_rss_mb()
    reference = workload.reference()
    settle()

    pass_norm = measure.host_normalized(pass_s, pass_probes)
    end_to_end = {
        "setup_s": statistics.median(measure.host_normalized(import_s, import_probes))
        + statistics.median(measure.host_normalized(prepare_s, prepare_probes)),
        "verdict_s": statistics.median(pass_norm),
        "peak_rss_mb": rss,
    }
    all_probes = import_probes + prepare_probes + pass_probes
    layer: Dict[str, float] = {
        "bench.wall_verdict_s": statistics.median(pass_s),
        "bench.probe_ms": statistics.median(all_probes) * 1e3,
    }
    tracers = []
    missing: List[str] = []
    if args.trace:
        traced, tracers, missing = traced_passes(workload, pass_norm, passes)
        layer.update(traced)
        layer.update(workload.layer_extras())

    failures = check(passes, reference)
    attempted = len(passes) * len(reference)
    failed = sum(key.startswith("pass ") for key in failures)
    first = passes[0]
    accuracy = sum(r.expected == r.got for r in first) / len(first)
    layer["bench.verdict_accuracy"] = accuracy
    layer["bench.failed_frac"] = failed / attempted
    per_window_us = [s / workload.windows_per_pass * 1e6 for s in pass_norm]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "environment": environment(args.seed),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"{key}: {why}" for key, why in sorted(failures.items())][:50],
        "end_to_end": end_to_end,
        "per_layer": layer,
        "timings": {
            "import_s": import_s,
            "prepare_s": prepare_s,
            "pass_s": pass_s,
            "probes_s": {
                "import": import_probes,
                "prepare": prepare_probes,
                "pass": pass_probes,
            },
            "probe_reference_s": measure.PROBE_REFERENCE_S,
            "pass": measure.summarize(pass_norm),
            "pass_wall": measure.summarize(pass_s),
            "us_per_window": measure.summarize(per_window_us),
            "windows_per_pass": workload.windows_per_pass,
        },
        "missing_layers": missing,
        "digests": {r.id: r.digest for r in first},
        "verdicts": {
            r.id: {
                "expected": {str(k): v for k, v in sorted(r.expected.items())},
                "got": {str(k): v for k, v in sorted(r.got.items())},
                "ok": r.expected == r.got,
            }
            for r in first
        },
    }, tracers


# -- reporting ---------------------------------------------------------------


def metric_block(declared: List[dict], source: Dict[str, float]) -> dict:
    return {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def print_human(result: dict, metrics: dict) -> None:
    timings = result["timings"]
    print(
        f"{result['workload']} seed={result['seed']} trace={result['trace']} "
        f"passes={timings['pass']['n']} windows/pass={timings['windows_per_pass']}"
    )
    for name, entry in metrics.items():
        print(f"  {name:<42} {entry['value']:.6g} {entry['unit']}")
    p = timings["pass"]
    wall = timings["pass_wall"]
    print(
        f"  pass: median {p['median']:.4f} s, IQR {p['iqr']:.4f} s, n={p['n']}; "
        f"{timings['us_per_window']['median']:.1f} us per deployment-window "
        f"(reference host); wall median {wall['median']:.4f} s, IQR {wall['iqr']:.4f} s"
    )
    print(
        f"  verdict accuracy {result['per_layer']['bench.verdict_accuracy']:.3f} "
        f"over {len(result['verdicts'])} deployments; "
        f"failed {result['failed']}/{result['attempted']}"
    )
    for message in result["failures"]:
        print(f"  FAIL {message}")


def run_one(args: argparse.Namespace, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / ".work"))
    os.environ.update(child_env(workdir))
    tempfile.tempdir = str(workdir)
    epoch = time.perf_counter()
    try:
        result, tracers = run_workload(args, workdir)
    finally:
        settle()
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    out_dir = Path(args.out) if args.out else BENCH_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    if tracers:
        import spans

        trace_path = Path(args.trace_out) if args.trace_out else out_dir / f"{stem}.spans.jsonl"
        spans.write_jsonl(trace_path, tracers, epoch)
        result["spans_file"] = str(trace_path)
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)

    if args.trace:
        metrics = metric_block(spec["per_layer"], result["per_layer"])
    else:
        metrics = metric_block(spec["end_to_end"], result["end_to_end"])
    print_human(result, metrics)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


def run_all(spec: dict, argv: List[str]) -> int:
    """Each workload in a fresh child process, one after another."""
    status = 0
    for workload in spec["workloads"]:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"]]
        completed = subprocess.run(command + argv)
        status = max(status, completed.returncode)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        spec = load_spec()
    except FileNotFoundError:
        print("bench: BENCHMARK.json not found at the repository root", file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure under {SRC.name}/repro", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(spec, argv)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
