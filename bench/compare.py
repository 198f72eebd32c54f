"""Compare benchmark result files of a parent commit and a change.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by ``bench/run.py``
(or a single file).  Only untraced runs (``--trace 0``) are compared.
Runs of one workload pair up in seed order, so run both sides on the
same seeds, alternating which side runs first.

One row per (metric, workload).  For each end-to-end metric of
``BENCHMARK.json``:

* ``gain``: at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and its median beats the parent's
  by more than the parent's IQR;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound (a share of the parent's median);
* ``unresolved``: either side's IQR exceeds the bound, unless every run
  of one side reads better than every run of the other;
* ``no worse`` otherwise.

Two quality gates ride along: ``bench.verdict_accuracy`` must not drop
and ``bench.failed_frac`` must not rise on any same-seed pair (no such
pair: ``unresolved``), and every change run must be ``correct``.  The
exit code is 1 when any row regresses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Sequence

from measure import quartiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9

#: per-layer metrics compared exactly per pair: name -> better direction
QUALITY_GATES = {"bench.verdict_accuracy": "higher", "bench.failed_frac": "lower"}


def load_results(path: Path) -> List[dict]:
    """Untraced result files under ``path``, sorted by (workload, seed)."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    runs = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            result = json.load(handle)
        if result.get("trace") == 0 and "workload" in result:
            runs.append(result)
    return sorted(runs, key=lambda r: (r["workload"], r["seed"]))


def decide(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> dict:
    """The pass rule for one metric on one workload (see module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    improvement = sign * (p_median - c_median)  # > 0: the change is better
    scale = abs(p_median) or 1.0
    spread = max((p_q3 - p_q1) / scale, (c_q3 - c_q1) / (abs(c_median) or 1.0))
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and improvement > p_q3 - p_q1:
        verdict = "gain"
    elif spread > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif -improvement / scale > bound:
        verdict = "regression"
    else:
        verdict = "no worse"
    return {
        "pairs": len(pairs),
        "wins": wins,
        "parent": (p_median, p_q1, p_q3),
        "change": (c_median, c_q1, c_q3),
        "verdict": verdict,
    }


def gate(parent_runs: List[dict], change_runs: List[dict], name: str, better: str) -> dict:
    """Exact per-pair check of a quality metric: the change may not be worse."""
    sign = 1.0 if better == "lower" else -1.0
    parent = [r["per_layer"][name] for r in parent_runs]
    change = [r["per_layer"][name] for r in change_runs]
    # Quality moves with the seed, so only same-seed pairs are comparable.
    same_seed = [
        (p, c)
        for p, c, pr, cr in zip(parent, change, parent_runs, change_runs)
        if pr["seed"] == cr["seed"]
    ]
    worse = sum(sign * (c - p) > 0 for p, c in same_seed)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    if worse:
        verdict = "regression"
    elif not same_seed:
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {
        "pairs": len(same_seed),
        "wins": len(same_seed) - worse,
        "parent": (p_median, p_q1, p_q3),
        "change": (c_median, c_q1, c_q3),
        "verdict": verdict,
    }


def compare(parent_runs: List[dict], change_runs: List[dict], spec: dict) -> List[dict]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        parent = [r for r in parent_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        if not parent or not change:
            continue
        for metric in spec["end_to_end"]:
            row = decide(
                [r["end_to_end"][metric["name"]] for r in parent],
                [r["end_to_end"][metric["name"]] for r in change],
                metric["better"],
                metric["bound"],
            )
            rows.append({"metric": metric["name"], "workload": workload, **row})
        for name, better in QUALITY_GATES.items():
            rows.append({"metric": name, "workload": workload, **gate(parent, change, name, better)})
        incorrect = sum(not r["correct"] for r in change)
        rows.append(
            {
                "metric": "correct",
                "workload": workload,
                "pairs": len(change),
                "wins": len(change) - incorrect,
                "parent": None,
                "change": None,
                "verdict": "regression" if incorrect else "no worse",
            }
        )
    return rows


def render(rows: List[dict]) -> str:
    def fmt(triple) -> str:
        if triple is None:
            return "-"
        median, q1, q3 = triple
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    lines = [
        f"{'metric':<24} {'workload':<14} {'pairs':>5} {'wins':>5}  "
        f"{'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<24} {row['workload']:<14} {row['pairs']:>5} {row['wins']:>5}  "
            f"{fmt(row['parent']):<30} {fmt(row['change']):<30} {row['verdict']}"
        )
    if any(row["pairs"] < MIN_PAIRS for row in rows):
        lines.append(f"note: fewer than {MIN_PAIRS} pairs on some rows; no gain can be claimed there")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Apply the benchmark's pass rule.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = compare(load_results(args.parent), load_results(args.change), spec)
    if not rows:
        print("no workload has untraced results on both sides", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
