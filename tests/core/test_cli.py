"""Tests for the command-line interface."""

import json
import logging
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        subparser_action = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0])))
        commands = set(subparser_action.choices)
        assert {"headline", "compare", "fig5", "fig8", "fig9",
                "methodology", "pvt", "refresh-plan", "banking",
                "voltage", "optimize", "sensitivity"} <= commands

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_headline(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "access time" in out
        assert "energy per bit" in out

    def test_headline_custom_size(self, capsys):
        assert main(["headline", "--kb", "256"]) == 0
        assert "256 kb" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "localblock" in out
        assert "decode" in out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "activity" in out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--cycles", "20000"]) == 0
        out = capsys.readouterr().out
        assert "monoblock" in out

    def test_refresh_plan(self, capsys):
        assert main(["refresh-plan", "--granules", "64"]) == 0
        out = capsys.readouterr().out
        assert "saving" in out

    def test_banking(self, capsys):
        assert main(["banking", "--kb", "512"]) == 0
        out = capsys.readouterr().out
        assert "banks" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "static_power" in out
        assert "retention" in out

    def test_voltage(self, capsys):
        assert main(["voltage"]) == 0
        assert "vdd" in capsys.readouterr().out

    def test_optimize(self, capsys):
        assert main(["optimize"]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out
        assert "best for" in out

    def test_invalid_capacity_exits(self):
        with pytest.raises(SystemExit):
            main(["headline", "--kb", "-1"])


def test_analytic_commands_do_not_load_scipy():
    """SciPy loads on the first circuit solve, not with ``repro``."""
    script = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['headline'], ['fig5', '--cycles', '2000'],\n"
        "                 ['mc', '--samples', '50']):\n"
        "        assert main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = str(pathlib.Path(repro.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


class TestInstrumentation:
    def test_metrics_out_writes_run_report(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["fig5", "--cycles", "5000",
                     "--metrics-out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["command"] == "fig5"
        assert report["spans"][0]["name"] == "fig5"
        simulate = report["spans"][0]["children"][0]
        assert simulate["name"] == "simulate"
        assert simulate["children"], "simulate must have component children"
        assert report["metrics"]["counters"]["refresh.stall_cycles"] >= 0
        assert "fingerprint" in report

    def test_profile_prints_span_tree(self, capsys):
        assert main(["fig5", "--cycles", "5000", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "== spans ==" in err
        assert "simulate" in err
        assert "refresh.stall_cycles" in err

    def test_fingerprint_stable_across_runs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            main(["fig5", "--cycles", "5000", "--metrics-out", str(path)])
        fingerprints = [json.loads(p.read_text())["fingerprint"]
                        for p in paths]
        assert fingerprints[0] == fingerprints[1]

    def test_disabled_by_default_leaves_obs_off(self):
        from repro import obs
        main(["fig5", "--cycles", "5000"])
        assert not obs.is_enabled()
        assert obs.tracer().finished_roots() == []

    def test_headline_profile_shows_macro_spans(self, capsys):
        assert main(["headline", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "macro.build" in err
        assert "macro.summary" in err

    def test_verbose_flag_enables_info_logging(self, capsys):
        logger = logging.getLogger("repro")
        before = list(logger.handlers)
        try:
            assert main(["fig5", "--cycles", "5000", "-v"]) == 0
            assert logger.level == logging.INFO
            err = capsys.readouterr().err
            assert "running command 'fig5'" in err
        finally:
            for handler in logger.handlers[:]:
                if handler not in before:
                    logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)
