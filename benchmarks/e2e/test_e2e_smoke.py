"""Smoke test of the end-to-end benchmark at ``--smoke`` size.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Every workload runs in a subprocess exactly as ``BENCHMARK.json``'s
command runs it, only with seconds-long inputs.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"),
         "--smoke", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _assert_printed(stdout: str, metrics) -> None:
    for metric in metrics:
        pattern = (rf"^\s+{re.escape(metric['name'])}\s+\S+ "
                   rf"{re.escape(metric['unit'])}$")
        assert re.search(pattern, stdout, re.M), metric["name"]


@pytest.mark.parametrize("seed", [2009, 7])
def test_every_workload_passes_and_prints_every_metric(seed):
    done = _run("--seed", str(seed))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    _assert_printed(done.stdout, SPEC["end_to_end"])
    for workload in SPEC["workloads"]:
        assert f"== {workload['name']} " in done.stdout
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (workload["name"], metric["name"])


def test_trace_prints_every_per_layer_metric():
    done = _run("--seed", "7", "--workload", "mc-retention-ckpt", "--trace")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["per_layer"])
    _assert_printed(done.stdout, SPEC["per_layer"])
    assert result["metrics"]["checkpoint.save_calls"]["value"] > 0
    trace = json.loads(
        (HERE / "results" / "smoke" / "trace-mc-retention-ckpt.json")
        .read_text())
    assert any(e["name"] == "variability.sweep" for e in trace["traceEvents"])


def test_perturbed_reference_value_fails(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["smoke"]["mc-localblock"]["median"] *= 1.0 + 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    done = _run("--seed", "2009", "--workload", "mc-localblock",
                "--reference", str(path))
    assert done.returncode != 0
    assert "MISMATCH mc-localblock: median" in done.stdout
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", ".scratch"))
    done = _run("--seed", "2009", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
