"""Tests for the repro CLI (python -m repro)."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_artefact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "nope"])

    def test_defaults(self):
        args = build_parser().parse_args(["reproduce", "fig7"])
        assert args.days == 21
        assert args.seed == 2003

    def test_parses_parity(self):
        args = build_parser().parse_args(["parity", "--days", "2", "--seed", "9"])
        assert args.command == "parity"
        assert args.days == 2
        assert args.seed == 9
        assert not hasattr(args, "backend")

    def test_bench_is_not_a_subcommand(self):
        # Timing lives in bench/ (python3 bench/run.py), not in the CLI.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table6" in out and "stuck_at" in out

    def test_reproduce_table1(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "0.90" in out

    def test_reproduce_fig7_short_run(self, capsys):
        assert main(["reproduce", "fig7", "--days", "7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "visits" in out

    def test_scenario_stuck_at(self, capsys):
        assert main(["scenario", "stuck_at", "--days", "10"]) == 0
        out = capsys.readouterr().out
        assert "ground truth: {6: 'stuck_at'}" in out
        assert "stuck_at" in out
        assert "M_C states" in out

    def test_scenario_clean_has_no_diagnoses(self, capsys):
        assert main(["scenario", "clean", "--days", "7"]) == 0
        out = capsys.readouterr().out
        assert "per-sensor diagnoses: none" in out
        assert "system verdict: none" in out

    def test_parity_passes_and_reports_grid(self, capsys):
        assert main(["parity", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "parity PASS" in out
        # every filter kind x supervisor mode appears in the grid
        for kind in ("k_of_n", "sprt", "cusum"):
            assert kind in out
        for mode in ("off", "warn", "repair"):
            assert mode in out

    def test_parity_fails_when_no_window_certifies(self, capsys, monkeypatch):
        # Equal results from engines that never took the certified lane
        # prove nothing about it: the gate must not pass vacuously.
        from repro.core.pipeline import DetectionPipeline

        monkeypatch.setattr(
            DetectionPipeline, "_window_step", lambda self, window, stat: False
        )
        assert main(["parity", "--days", "1"]) == 1
        out = capsys.readouterr().out
        assert "certified=0 FAIL" in out
        assert "parity FAIL" in out


class TestCLIReporting:
    def test_scenario_save_writes_json(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        assert main(
            ["scenario", "stuck_at", "--days", "10", "--save", str(path)]
        ) == 0
        capsys.readouterr()
        import json

        document = json.loads(path.read_text())
        assert document["diagnoses"]["6"]["anomaly_type"] == "stuck_at"

    def test_scenario_incident_report(self, capsys):
        assert main(
            ["scenario", "stuck_at", "--days", "10", "--incident-report"]
        ) == 0
        out = capsys.readouterr().out
        assert "Incident report — stuck_at" in out
        assert "recommended action" in out
        assert "replacement" in out


_BLOCKED_IMPORTS = textwrap.dedent(
    """
    import importlib.abc
    import sys

    class Block(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in ("networkx", "scipy", "hypothesis"):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, Block())

    import repro
    import repro.cli
    import repro.experiments

    code = repro.cli.main(["list"])
    assert "networkx" not in sys.modules, "networkx was imported"
    sys.exit(code)
    """
)


def test_import_and_list_need_only_numpy():
    """``import repro`` and ``repro list`` run with the optional deps blocked."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_IMPORTS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sweeps:" in proc.stdout

