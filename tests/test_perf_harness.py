"""Perf-regression harness logic (no heavy timing in here)."""

from __future__ import annotations

import json

import pytest

from repro import perf


def _payload(**overrides):
    base = {
        "schema": 8,
        "parallel_scaling": {
            "scenarios": ["clean"],
            "n_days": 3,
            "seed": 2003,
            "cpu_count": 2,
            "serial_seconds": 0.1,
            "curve": [
                {
                    "n_workers": 1,
                    "seconds": 0.1,
                    "speedup": 1.0,
                    "efficiency": 1.0,
                }
            ],
            "digest_parity": True,
        },
        "pipeline_us_per_window": 200.0,
        "fused_pipeline_us_per_window": 50.0,
        "hmm_update_us": 3.0,
        "clusterer_update_us": 120.0,
        "filter_bank_us": 11.0,
        "fleet_isolated_us_per_deployment_window": 12.5,
        "fleet_degradation": {
            "n_tenants": 12,
            "n_windows": 400,
            "checkpoint_interval": 200,
            "raw_us_per_deployment_window": 12.0,
            "isolated_us_per_deployment_window": 12.5,
            "overhead_pct": 4.2,
            "digest_parity": True,
            "isolation_overhead_seconds": {
                "checkpoint_seconds": 0.002,
                "rollback_seconds": 0.0,
                "attribution_seconds": 0.0,
                "recovery_seconds": 0.0,
            },
            "faulted": {
                "n_tenants": 8,
                "n_poisoned": 2,
                "kinds": ["exploding", "malformed", "exception"],
                "quarantined": 2,
                "readmitted": 2,
                "rollbacks": 14,
                "survivors_bit_identical": True,
                "all_faults_handled": True,
            },
        },
        "filter_bank": {
            "n_sensors": 50,
            "n_windows": 2000,
            "scalar_us_per_window": 20.0,
            "vector_us_per_window": 11.0,
            "speedup": 1.82,
        },
        "trace_gen_us_per_window": 40.0,
        "trace_generation": {
            "n_days": 3,
            "n_windows": 72,
            "object_us_per_window": 4000.0,
            "columnar_us_per_window": 40.0,
            "speedup": 100.0,
        },
        "campaign": {
            "scenarios": ["clean"],
            "n_days": 3,
            "seed": 2003,
            "n_jobs": 1,
            "serial_seconds": 1.0,
            "parallel_seconds": 1.0,
            "speedup": 1.0,
        },
        "baseline_pre_optimization": dict(perf.PRE_OPTIMIZATION_BASELINE),
        "environment": {"python": "3.11", "numpy": "2.0", "cpu_count": 1},
    }
    base.update(overrides)
    return base


def test_compare_clean_run():
    assert perf.compare(_payload(), _payload(), tolerance=0.3) == []


def test_compare_within_tolerance():
    current = _payload(pipeline_us_per_window=200.0 * 1.25)
    assert perf.compare(current, _payload(), tolerance=0.3) == []


def test_compare_flags_regression():
    current = _payload(pipeline_us_per_window=200.0 * 1.5)
    failures = perf.compare(current, _payload(), tolerance=0.3)
    assert len(failures) == 1
    assert "pipeline_us_per_window" in failures[0]


def test_compare_ignores_missing_metrics():
    previous = _payload()
    del previous["hmm_update_us"]
    current = _payload(hmm_update_us=999.0)
    assert perf.compare(current, previous, tolerance=0.3) == []


def test_compare_improvement_never_fails():
    current = _payload(
        pipeline_us_per_window=1.0, hmm_update_us=0.1, clusterer_update_us=1.0
    )
    assert perf.compare(current, _payload(), tolerance=0.0) == []


def test_render_mentions_every_checked_metric():
    text = perf.render(_payload())
    for metric in perf.CHECKED_METRICS:
        assert metric in text
    assert "campaign" in text
    assert "trace gen" in text


def test_render_tolerates_schema1_payload():
    # --check against an old baseline must not crash the report.
    old = _payload()
    old["schema"] = 1
    del old["trace_generation"]
    del old["trace_gen_us_per_window"]
    text = perf.render(_payload())
    assert perf.compare(_payload(), old, tolerance=0.3) == []
    assert "trace gen" in text


def test_compare_tolerates_schema2_payload():
    # Baselines written before the fused/filter-bank metrics existed
    # must still check cleanly (schema growth never fails old files).
    old = _payload()
    old["schema"] = 2
    del old["fused_pipeline_us_per_window"]
    del old["filter_bank_us"]
    del old["filter_bank"]
    assert perf.compare(_payload(), old, tolerance=0.3) == []


def test_compare_tolerates_schema5_payload():
    # Baselines written before the fleet-isolation metric existed must
    # still check cleanly.
    old = _payload()
    old["schema"] = 5
    del old["fleet_isolated_us_per_deployment_window"]
    del old["fleet_degradation"]
    assert perf.compare(_payload(), old, tolerance=0.3) == []
    # And rendering a payload without the block must not crash.
    assert "fleet isolation" not in perf.render(old)


def test_compare_tolerates_schema6_payload():
    # Baselines written before the backend/scaling blocks existed must
    # still check cleanly, and rendering them must not crash.
    old = _payload()
    old["schema"] = 6
    del old["parallel_scaling"]
    assert perf.compare(_payload(), old, tolerance=0.3) == []
    assert "parallel scaling" not in perf.render(old)


def test_render_mentions_scaling_block():
    text = perf.render(_payload())
    assert "parallel scaling" in text
    assert "1w: 0.1s (eff 1.0)" in text
    # A schema-7 baseline still carries the retired backend block; it
    # checks cleanly and renders without it.
    old = _payload(schema=7, backend={"kernels": {}, "digest_parity": True})
    assert perf.compare(_payload(), old, tolerance=0.3) == []
    assert perf.render(old) == text


def test_render_mentions_fleet_isolation_block():
    text = perf.render(_payload())
    assert "fleet isolation" in text
    assert "+4.2% no-fault overhead" in text
    assert "2 quarantined" in text
    assert "survivors bit-identical" in text


def test_bench_hmm_update_returns_microseconds():
    # Tiny workload: this is a plumbing check, not a measurement.
    us = perf.bench_hmm_update(repeats=1, n_updates=50)
    assert 0.0 < us < 1e6


def test_bench_fused_pipeline_returns_microseconds():
    us = perf.bench_fused_pipeline(repeats=1, n_windows=24)
    assert 0.0 < us < 1e6


def test_bench_filter_bank_reports_both_paths():
    result = perf.bench_filter_bank(repeats=1, n_sensors=8, n_windows=60)
    assert 0.0 < result["scalar_us_per_window"] < 1e6
    assert 0.0 < result["vector_us_per_window"] < 1e6
    assert result["speedup"] > 0.0


def test_profile_fused_renders_cumulative_table():
    text = perf.profile_fused(n_windows=24, runs=1, top=5)
    assert "cProfile" in text
    assert "cumulative" in text
    assert "process_windows_fast" in text


def test_parity_command_passes_and_reports_grid():
    text, code = perf.parity_command(n_days=1, seed=7)
    assert code == 0
    assert "parity PASS" in text
    # every filter kind x supervisor mode appears in the grid
    for kind in ("k_of_n", "sprt", "cusum"):
        assert kind in text
    for mode in ("off", "warn", "repair"):
        assert mode in text


def test_check_without_previous_file(tmp_path, monkeypatch):
    monkeypatch.setattr(perf, "run_bench", lambda **kw: _payload())
    text, code = perf.bench_command(
        output=str(tmp_path / "missing.json"), check=True
    )
    assert code == 0
    assert "nothing to check" in text


def test_write_then_check_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(perf, "run_bench", lambda **kw: _payload())
    output = str(tmp_path / "bench.json")
    text, code = perf.bench_command(output=output, check=False)
    assert code == 0
    with open(output, encoding="utf-8") as fh:
        assert json.load(fh)["pipeline_us_per_window"] == 200.0

    text, code = perf.bench_command(output=output, check=True)
    assert code == 0
    assert "no regressions" in text

    slow = _payload(clusterer_update_us=120.0 * 2)
    monkeypatch.setattr(perf, "run_bench", lambda **kw: slow)
    text, code = perf.bench_command(output=output, check=True)
    assert code == 1
    assert "REGRESSIONS" in text
    # --check must never overwrite the baseline it compared against.
    with open(output, encoding="utf-8") as fh:
        assert json.load(fh)["clusterer_update_us"] == 120.0


def test_checked_metrics_present_in_real_schema():
    for metric in perf.CHECKED_METRICS:
        assert metric in perf.PRE_OPTIMIZATION_BASELINE


@pytest.mark.parametrize("argv", [["bench", "--tolerance", "0.5"]])
def test_cli_parses_bench_flags(argv):
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    assert args.command == "bench"
    assert args.tolerance == 0.5
    assert args.jobs == 0
    assert args.profile is False


def test_cli_parses_bench_profile_and_parity():
    from repro.cli import build_parser

    args = build_parser().parse_args(["bench", "--profile"])
    assert args.profile is True

    args = build_parser().parse_args(["parity", "--days", "2", "--seed", "9"])
    assert args.command == "parity"
    assert args.days == 2
    assert args.seed == 9
    assert not hasattr(args, "backend")


def test_environment_info_is_json_ready():
    info = perf.environment_info(threads_pinned=True)
    json.dumps(info)  # must be serializable as-is
    assert info["threads_pinned_during_timing"] is True
    assert "blas" in info and "thread_env" in info
