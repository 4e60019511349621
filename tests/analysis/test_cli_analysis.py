"""CLI behaviour of ``repro lint`` / ``repro check``: exit codes,
formats, baseline workflow."""

import json

import pytest

from repro.cli import main

BAD_SOURCE = "cap = 11e-15\nratio = 0.38\n"
CLEAN_SOURCE = "from repro.units import fF\ncap = 11 * fF\n"


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE)
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN_SOURCE)
    return path


class TestLintCli:
    def test_clean_file_exits_zero(self, clean_file, capsys):
        assert main(["lint", str(clean_file)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_errors_exit_one(self, bad_file, capsys):
        assert main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "[L101]" in out and "11e-15" in out

    def test_json_format(self, bad_file, capsys):
        assert main(["lint", "--format", "json", str(bad_file)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == 1
        assert data["diagnostics"][0]["rule"] == "L101"

    def test_warnings_pass_without_strict(self, tmp_path, capsys):
        path = tmp_path / "warn.py"
        path.write_text("def f(bitline_cap):\n    '''No units.'''\n")
        assert main(["lint", str(path)]) == 0
        assert main(["lint", "--strict", str(path)]) == 1

    def test_write_baseline_then_clean_run(self, bad_file, tmp_path,
                                           capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--write-baseline", str(baseline),
                     str(bad_file)]) == 0
        assert baseline.is_file()
        assert main(["lint", "--baseline", str(baseline),
                     str(bad_file)]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_write_baseline_bare_flag_uses_default_name(self, bad_file,
                                                        tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--write-baseline", "--", str(bad_file)]) == 0
        assert (tmp_path / ".repro-lint-baseline.json").is_file()

    def test_baseline_does_not_hide_new_findings(self, bad_file, tmp_path):
        baseline = tmp_path / "baseline.json"
        main(["lint", "--write-baseline", str(baseline), str(bad_file)])
        bad_file.write_text(BAD_SOURCE + "load = 3e-12\n")
        assert main(["lint", "--baseline", str(baseline),
                     str(bad_file)]) == 1

    def test_baseline_auto_discovered_from_path(self, bad_file, tmp_path):
        main(["lint", "--write-baseline",
              str(tmp_path / ".repro-lint-baseline.json"), str(bad_file)])
        assert main(["lint", str(bad_file)]) == 0
        assert main(["lint", "--no-baseline", str(bad_file)]) == 1


class TestCheckCli:
    def test_builtin_registry_passes(self, capsys):
        assert main(["check", "--no-baseline"]) == 0

    def test_strict_flags_builtin_warnings(self, capsys):
        # The local-block netlists carry known zero-capacitance warnings.
        assert main(["check", "--strict", "--no-baseline"]) == 1

    def test_bad_model_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "models.py"
        path.write_text(
            "from repro.spice import Circuit\n"
            "EMPTY = Circuit('cli-empty')\n")
        assert main(["check", "--no-defaults", "--no-baseline",
                     str(path)]) == 1
        assert "[M201]" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "models.py"
        path.write_text(
            "from repro.spice import Circuit\n"
            "EMPTY = Circuit('cli-empty-json')\n")
        assert main(["check", "--no-defaults", "--no-baseline",
                     "--format", "json", str(path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["errors"] == 1

    def test_profile_keeps_exit_code(self, tmp_path, capsys):
        path = tmp_path / "models.py"
        path.write_text(
            "from repro.spice import Circuit\n"
            "EMPTY = Circuit('cli-empty-profiled')\n")
        assert main(["check", "--no-defaults", "--no-baseline",
                     "--profile", str(path)]) == 1
