"""Tests for the command-line interface."""

import subprocess

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["lower-bound"])
        assert args.n == 3 and args.t == 1
        assert args.max_states == 1_000_000
        assert args.timeout is None
        assert args.checkpoint is None and args.resume is None

    def test_global_flag_position(self):
        args = build_parser().parse_args(
            ["--max-states", "5000", "lemmas"]
        )
        assert args.max_states == 5000

    def test_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "--timeout",
                "60",
                "--checkpoint",
                "run.ckpt",
                "--resume",
                "old.ckpt",
                "lower-bound",
            ]
        )
        assert args.timeout == 60.0
        assert args.checkpoint == "run.ckpt" and args.resume == "old.ckpt"

    def test_every_subcommand_accepts_the_budget_flags(self):
        parser = build_parser()
        for command in (
            "lower-bound",
            "impossibility",
            "solvability",
            "lemmas",
            "diameter",
        ):
            args = parser.parse_args(
                ["--max-states", "123", "--timeout", "9", command]
            )
            assert args.max_states == 123 and args.timeout == 9.0

    def test_budget_flags_also_accepted_after_the_subcommand(self):
        parser = build_parser()
        for command in (
            "lower-bound",
            "impossibility",
            "solvability",
            "lemmas",
            "diameter",
        ):
            args = parser.parse_args(
                [command, "--max-states", "123", "--timeout", "9"]
            )
            assert args.max_states == 123 and args.timeout == 9.0

    def test_trailing_flags_do_not_clobber_leading_ones(self):
        # A subparser default must not overwrite a value parsed from the
        # top-level position.
        args = build_parser().parse_args(
            ["--timeout", "60", "lower-bound", "--max-states", "7"]
        )
        assert args.timeout == 60.0 and args.max_states == 7


class TestCommands:
    def test_lower_bound(self, capsys):
        assert main(["lower-bound", "--n", "3", "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert "crossover holds" in out
        assert "agreement-violation" in out
        assert "satisfied" in out

    def test_impossibility_all_models(self, capsys):
        assert main(["impossibility", "--protocol", "quorum"]) == 0
        out = capsys.readouterr().out
        assert "no candidate survives" in out
        assert "s1-mobile" in out
        assert "iis-snapshot" in out

    def test_impossibility_single_model(self, capsys):
        assert (
            main(
                [
                    "impossibility",
                    "--protocol",
                    "waitforall",
                    "--model",
                    "permutation-mp",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decision-violation" in out

    def test_impossibility_unknown_model(self, capsys):
        assert main(["impossibility", "--model", "bogus"]) == 2

    def test_lemmas(self, capsys):
        assert main(["lemmas", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "3.6" in out and "5.1" in out

    def test_diameter(self, capsys):
        assert main(["diameter", "--n", "3", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "d_S(X)" in out

    def test_solvability_small(self, capsys):
        assert (
            main(
                [
                    "--max-states",
                    "400000",
                    "solvability",
                    "--tasks",
                    "identity,constant",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "identity" in out and "constant" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--modes", "explode", "--", "lower-bound"],
            ["chaos", "--max-hits", "0", "--", "lower-bound"],
            ["chaos", "--serve", "--modes", "raise"],
        ],
    )
    def test_chaos_usage_errors_exit_2_before_any_run(
        self, argv, monkeypatch
    ):
        def no_subprocess(*args, **kwargs):
            raise AssertionError("a rejected chaos sweep started a process")

        monkeypatch.setattr(subprocess, "Popen", no_subprocess)
        assert main(argv) == 2


class TestResilienceExitCodes:
    def test_budget_exhaustion_is_inconclusive_exit_2(self, capsys):
        assert main(["--max-states", "5", "lower-bound"]) == 2
        captured = capsys.readouterr()
        assert "unknown" in captured.out
        assert "inconclusive" in captured.err
        assert "--max-states" in captured.err  # the suggested bump

    def test_strict_limit_paths_also_exit_2(self, capsys):
        # The lemma drivers are strict: exhaustion raises and the top
        # level converts it into the same inconclusive exit code.
        assert main(["--max-states", "3", "lemmas"]) == 2
        captured = capsys.readouterr()
        assert "inconclusive" in captured.err

    def test_checkpoint_then_resume_reaches_verdict(self, tmp_path, capsys):
        path = str(tmp_path / "campaign.ckpt")
        assert main(["--max-states", "5", "--checkpoint", path, "lower-bound"]) == 2
        assert (tmp_path / "campaign.ckpt").exists()
        capsys.readouterr()
        assert main(["--max-states", "1000", "--resume", path, "lower-bound"]) == 0
        out = capsys.readouterr().out
        assert "crossover holds" in out

    def test_resume_missing_file_fails_cleanly(self, capsys):
        assert main(["--resume", "/nonexistent/x.ckpt", "lower-bound"]) == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_of_a_pickle_envelope_exits_2(self, tmp_path, capsys):
        """The whole-file pickle envelope older versions wrote is not a
        journal: resuming it names the bad magic and exits 2."""
        import pickle

        from repro.resilience.checkpoint import CampaignCheckpoint

        path = tmp_path / "legacy.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint", "version": 1,
            "kind": "CampaignCheckpoint", "checkpoint": CampaignCheckpoint(),
        }))
        assert main(["--resume", str(path), "lower-bound"]) == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and "bad magic" in err

    def test_resume_of_an_undecodable_record_exits_2(self, tmp_path, capsys):
        """A CRC-valid journal record whose pickle was damaged (here it
        makes the unpickler raise TypeError) cannot resume: exit 2, not
        the exit 1 of a theorem-contradicting result."""
        import pickle

        from repro.resilience.frames import encode_frame
        from repro.resilience.journal import MAGIC

        payload = bytearray(pickle.dumps(("unit", ("a", "ra")), protocol=5))
        payload[21] = ord("R")
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(MAGIC + encode_frame(bytes(payload)))
        assert main(["--resume", str(path), "impossibility", "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and "undecodable" in err

    def test_resume_into_a_new_checkpoint_copies_the_journal(
        self, tmp_path, capsys
    ):
        source = tmp_path / "a.ckpt"
        target = tmp_path / "b.ckpt"
        argv = ["--max-states", "5", "--checkpoint", str(source),
                "lower-bound"]
        assert main(argv) == 2
        before = source.read_bytes()
        capsys.readouterr()
        assert main(["--max-states", "1000", "--resume", str(source),
                     "--checkpoint", str(target), "lower-bound"]) == 0
        assert "crossover holds" in capsys.readouterr().out
        assert source.read_bytes() == before
        from repro.resilience.journal import load_journal

        assert load_journal(target)[0].completed

    def test_unwritable_checkpoint_path_degrades_to_diagnostic(self, capsys):
        # The run already has a result to report; a bad --checkpoint
        # path must not replace it with a traceback.
        code = main(
            [
                "--max-states",
                "5",
                "--checkpoint",
                "/nonexistent-dir/x.ckpt",
                "lower-bound",
            ]
        )
        assert code == 2
        assert "cannot write checkpoint" in capsys.readouterr().err

    def test_timeout_zero_is_inconclusive(self, capsys):
        assert main(["--timeout", "0", "lower-bound"]) == 2
        captured = capsys.readouterr()
        assert "inconclusive" in captured.err
