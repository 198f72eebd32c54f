"""Summarise two independent sets of result files into ``baseline.json``.

    python3 bench/baseline.py SET_A_DIR SET_B_DIR > bench/baseline.json

Each directory holds the result files of one set of runs of the same
commit (``bench/run.py --out DIR``), untraced and traced.  For every
(metric, workload) pair the output gives each set's median, quartiles,
IQR and run count, the IQR as a share of the median, and how far set
B's median moved from set A's.  End-to-end metrics come from untraced
runs, per-layer metrics from traced runs.  The baseline claims no gain.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import summarize

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list:
    return [json.loads(path.read_text()) for path in sorted(directory.glob("*.json"))]


def block(sets: dict, names: list, trace: int, section: str) -> dict:
    out: dict = {}
    workloads = sorted({r["workload"] for runs in sets.values() for r in runs})
    for workload in workloads:
        for name in names:
            entry = {}
            for label, runs in sets.items():
                values = [
                    r[section][name]
                    for r in runs
                    if r["workload"] == workload and r["trace"] == trace and name in r[section]
                ]
                if values:
                    entry[label] = summarize(values)
                    entry[label]["seeds"] = sorted(
                        r["seed"] for r in runs if r["workload"] == workload and r["trace"] == trace
                    )
            if len(entry) == 2 and entry["A"]["median"]:
                entry["b_vs_a"] = entry["B"]["median"] / entry["A"]["median"] - 1.0
            if entry:
                out.setdefault(workload, {})[name] = entry
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = {"A": load(Path(argv[0])), "B": load(Path(argv[1]))}
    first = next(r for runs in sets.values() for r in runs)
    quality = ["bench.verdict_accuracy", "bench.failed_frac"]
    baseline = {
        "claim": None,
        "run_seconds": spec["run_seconds"],
        "environment": {k: v for k, v in first["environment"].items() if k != "seed"},
        "end_to_end": block(sets, [m["name"] for m in spec["end_to_end"]], 0, "end_to_end"),
        "quality": block(sets, quality, 0, "per_layer"),
        "per_layer": block(sets, [m["name"] for m in spec["per_layer"]], 1, "per_layer"),
    }
    json.dump(baseline, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
