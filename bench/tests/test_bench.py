"""Tests of the benchmark's own arithmetic and of its command line.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- order statistics --------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 100) == 5.0
    assert measure.percentile(values, 90) == pytest.approx(4.6)
    assert measure.percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_quartiles_match_statistics_module_and_single_sample():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert measure.quartiles(values) == (2.75, 5.5, 8.25)
    assert measure.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_summarize_reports_median_iqr_spread_and_count():
    summary = measure.summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert summary["median"] == 3.0
    assert summary["n"] == 5
    assert summary["iqr"] == pytest.approx(summary["q3"] - summary["q1"])
    assert summary["spread"] == pytest.approx(summary["iqr"] / 3.0)
    assert measure.summarize([2.0, 2.0, 2.0])["spread"] == 0.0
    assert measure.summarize([0.0, 0.0])["spread"] == 0.0


def test_host_normalized_scales_each_region_by_its_surrounding_probes():
    ref = measure.PROBE_REFERENCE_S
    # A host at reference speed leaves times alone; one running half as
    # fast (probes twice as long) halves them.
    assert measure.host_normalized([1.0, 3.0], [ref, ref, ref]) == pytest.approx([1.0, 3.0])
    assert measure.host_normalized([2.0], [2 * ref, 2 * ref]) == pytest.approx([1.0])
    # Region i uses the mean of probes i and i + 1.
    assert measure.host_normalized([3.0], [ref, 2 * ref]) == pytest.approx([2.0])
    with pytest.raises(ValueError):
        measure.host_normalized([1.0, 2.0], [ref, ref])


def test_probe_times_a_positive_interval():
    assert 0.0 < measure.probe() < 10.0


# -- span arithmetic ---------------------------------------------------------


def _nested_spans():
    # root [0,10] holds a [1,4] (which holds g [2,3]) and b [5,7].
    return [
        spans.Span("root", 0.0, 10.0, -1, "w"),
        spans.Span("a", 1.0, 4.0, 0, "w"),
        spans.Span("g", 2.0, 3.0, 1, "w"),
        spans.Span("b", 5.0, 7.0, 0, "w"),
    ]


def test_self_time_subtracts_child_coverage():
    assert spans.self_times(_nested_spans()) == {"root": 5.0, "a": 2.0, "g": 1.0, "b": 2.0}


def test_self_times_and_unattributed_partition_the_wall():
    tree = _nested_spans()
    total_self = sum(spans.self_times(tree).values())
    assert total_self + spans.unattributed(tree, -1.0, 12.0) == pytest.approx(13.0)


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == pytest.approx(3.5)


def test_inclusive_time_counts_nested_repeats_once():
    tree = [
        spans.Span("x", 0.0, 4.0, -1, "w"),
        spans.Span("x", 1.0, 2.0, 0, "w"),
        spans.Span("x", 5.0, 6.0, -1, "w"),
    ]
    assert spans.inclusive_time(tree, "x") == 5.0


def test_installed_wraps_restores_and_reports_missing_sites():
    import json as target

    original = target.dumps
    tracer = spans.Tracer("unit")
    layers = (
        ("json", "dumps", "json.dumps", spans._count_calls("json.calls")),
        ("json", "no_such_function", "never", None),
    )
    with spans.installed(tracer, layers) as missing:
        target.dumps({"a": 1})
        target.dumps([])
    assert target.dumps is original
    assert missing == ["json.no_such_function"]
    assert [s.name for s in tracer.spans] == ["json.dumps", "json.dumps"]
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer.counts["json.calls"] == 2


def test_every_self_time_metric_is_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(spans.SELF_TIME_METRICS.values()) <= declared


# -- the comparator's decision rule ------------------------------------------


def _runs(values):
    return [float(v) for v in values]


def test_decide_claims_a_gain_only_with_nine_of_ten_wins():
    parent = _runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    change = _runs([90, 91, 89, 90, 92, 88, 90, 91, 89, 90])
    assert compare.decide(parent, change, "lower", 0.1)["verdict"] == "gain"
    # Two lost pairs: still no worse, but no gain.
    mixed = change[:8] + [105.0, 105.0]
    assert compare.decide(parent, mixed, "lower", 0.1)["verdict"] == "no worse"
    # Fewer than ten pairs can never claim a gain.
    assert compare.decide(parent[:9], change[:9], "lower", 0.1)["verdict"] == "no worse"


def test_decide_needs_the_gap_to_exceed_the_parents_iqr():
    parent = _runs([90, 110, 95, 105, 100, 92, 108, 97, 103, 100])
    change = [p - 1.0 for p in parent]
    row = compare.decide(parent, change, "lower", 0.25)
    assert row["wins"] == 10
    assert row["verdict"] == "no worse"


def test_decide_flags_regressions_beyond_the_bound():
    parent = _runs([100, 101, 99, 100, 100])
    assert compare.decide(parent, [p * 1.2 for p in parent], "lower", 0.1)["verdict"] == "regression"
    assert compare.decide(parent, [p * 1.05 for p in parent], "lower", 0.1)["verdict"] == "no worse"
    # Higher-is-better metrics regress downwards.
    assert compare.decide(parent, [p * 0.8 for p in parent], "higher", 0.1)["verdict"] == "regression"


def test_decide_reports_unresolved_when_spread_exceeds_bound():
    parent = _runs([80, 120, 90, 110, 100, 85, 115, 95, 105, 100])
    change = _runs([85, 125, 95, 115, 105, 90, 120, 100, 110, 95])
    assert compare.decide(parent, change, "lower", 0.1)["verdict"] == "unresolved"
    # ...unless every change run reads worse than every parent run.
    worse = [v + 100.0 for v in change]
    assert compare.decide(parent, worse, "lower", 0.1)["verdict"] == "regression"


def _result(workload, seed, verdict_s, accuracy=1.0, correct=True):
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "correct": correct,
        "end_to_end": {"verdict_s": verdict_s, "peak_rss_mb": 100.0, "setup_s": 1.0},
        "per_layer": {"bench.verdict_accuracy": accuracy, "bench.failed_frac": 0.0},
    }


def test_compare_prints_one_row_per_metric_and_workload_and_gates_quality():
    parent = [_result("stream-online", seed, 1.0) for seed in range(10)]
    change = [_result("stream-online", seed, 1.0) for seed in range(10)]
    change[3] = _result("stream-online", 3, 1.0, accuracy=0.5)
    rows = compare.compare(parent, change, SPEC)
    by_metric = {row["metric"]: row for row in rows}
    assert {row["workload"] for row in rows} == {"stream-online"}
    assert len(rows) == len(SPEC["end_to_end"]) + len(compare.QUALITY_GATES) + 1
    assert by_metric["verdict_s"]["verdict"] == "no worse"
    assert by_metric["bench.verdict_accuracy"]["verdict"] == "regression"
    assert by_metric["correct"]["verdict"] == "no worse"
    assert "stream-online" in compare.render(rows)
    # Accuracy moves with the seed: other seeds cannot certify it.
    shifted = [_result("stream-online", seed + 10, 1.0) for seed in range(10)]
    rows = {row["metric"]: row for row in compare.compare(parent, shifted, SPEC)}
    assert rows["bench.verdict_accuracy"]["verdict"] == "unresolved"


# -- the command line --------------------------------------------------------


def _run_bench(args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_declared_metric(workload, trace, tmp_path):
    completed = _run_bench(
        ["--workload", workload, "--quick", "--trace", str(trace), "--out", str(tmp_path)]
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    record = json.loads(files[0].read_text())
    assert record["digests"] and record["environment"]["seed"] == 2003
    if trace:
        assert list(tmp_path.glob("*.spans.jsonl"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__")
    )
    completed = _run_bench(["--workload", "stream-online", "--quick"], cwd=tmp_path, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
