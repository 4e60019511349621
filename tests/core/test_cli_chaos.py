"""CLI tests for the resilience commands (mc, chaos) and --seed."""

import json

from repro.cli import build_parser, main


class TestSeedFlag:
    def test_seed_accepted_by_every_subcommand(self):
        parser = build_parser()
        subparser_action = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0])))
        for command in subparser_action.choices:
            if command == "lint":
                extra = ["src"]
            elif command == "obs":  # nested family: seed rides on export
                extra = ["export", "report.json"]
            else:
                extra = []
            args = parser.parse_args([command, *extra, "--seed", "7"])
            assert args.seed == 7

    def test_seed_lands_in_run_report(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["fig5", "--cycles", "20000", "--seed", "11",
                     "--metrics-out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["seed"] == 11

    def test_seed_changes_fig5_outcome_deterministically(self, capsys):
        def run(seed):
            assert main(["fig5", "--cycles", "20000",
                         "--seed", str(seed)]) == 0
            return capsys.readouterr().out
        assert run(1) == run(1)
        assert run(1) != run(2)


class TestChaosCommand:
    def test_chaos_runs_end_to_end(self, capsys):
        assert main(["chaos", "--cycles", "20000"]) == 0
        out = capsys.readouterr().out
        assert "fault plan" in out
        assert "degraded-mode" in out
        assert "data-loss events" in out
        assert "ladder recovered" in out
        assert "zero uncaught exceptions" in out

    def test_chaos_is_seeded(self, capsys):
        def run(seed):
            assert main(["chaos", "--cycles", "20000",
                         "--seed", str(seed)]) == 0
            return capsys.readouterr().out
        assert run(5) == run(5)


class TestMcCommand:
    def test_mc_completes_without_checkpoint(self, capsys):
        assert main(["mc", "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "100/100 samples" in out
        assert "6-sigma worst" in out

    def test_mc_budget_then_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "mc.json")
        assert main(["mc", "--samples", "200", "--checkpoint", ckpt,
                     "--max-seconds", "1e-9"]) == 0
        first = capsys.readouterr().out
        assert "stopped on max_seconds" in first
        assert main(["mc", "--samples", "200", "--checkpoint", ckpt,
                     "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "200/200 samples" in resumed
        # A completed run clears its checkpoint.
        assert not (tmp_path / "mc.json").exists()

    def test_mc_refuses_existing_checkpoint_without_resume(self, tmp_path,
                                                           capsys):
        ckpt = tmp_path / "mc.json"
        ckpt.write_text("{}")
        assert main(["mc", "--samples", "100",
                     "--checkpoint", str(ckpt)]) == 1
        assert "--resume" in capsys.readouterr().err

    def test_mc_globalbitline_runs_on_sparse_backend(self, tmp_path,
                                                     capsys):
        from repro import obs as obs_mod

        with obs_mod.instrumented() as registry:
            assert main(["mc", "--model", "globalbitline",
                         "--samples", "2"]) == 0
            counters = registry.snapshot()["counters"]
        out = capsys.readouterr().out
        assert "global-bitline read-signal Monte-Carlo: 2/2 samples" in out
        assert "6-sigma worst" in out
        # The default hierarchy sits above the auto threshold, so every
        # sample must have run the sparse path.
        assert counters["spice.sparse.auto.sparse"] == 2
        assert counters.get("spice.sparse.auto.dense", 0) == 0

    def test_mc_with_weak_cell_faults(self, capsys):
        assert main(["mc", "--samples", "100", "--faults",
                     "weak-cells"]) == 0
        out = capsys.readouterr().out
        assert "weak cells" in out
        assert "functional" in out
