"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig4_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.max_peers == 16
        assert args.seed == 42

    def test_seed_flag_global(self):
        args = build_parser().parse_args(["--seed", "7", "rtt"])
        assert args.seed == 7

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quantum"])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.seeds == 5
        assert args.schedules == 50
        assert args.max_ops == 4
        assert args.timeout is None
        assert args.replay is None
        assert not args.self_test
        assert not args.saga

    @pytest.mark.parametrize("flag", ["--saga-self-test", "--saga-replay=f"])
    def test_check_has_no_saga_twin_flags(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", flag])


class TestCommands:
    def test_fig4_runs_small(self, capsys):
        assert main(["fig4", "--max-peers", "4"]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert "r²" in output or "r2" in output.lower()

    def test_rtt_runs_small(self, capsys):
        assert main(["rtt", "--samples", "20"]) == 0
        output = capsys.readouterr().out
        assert "RTT" in output
        assert "p95" in output

    def test_failover_runs(self, capsys):
        assert main(["failover", "--heartbeat", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "Coordinator crash" in output
        assert "re-binds" in output

    def test_availability_runs(self, capsys):
        assert main(["availability", "--replicas", "2"]) == 0
        output = capsys.readouterr().out
        assert "Availability under churn" in output
        assert "availability" in output

    def test_trace_driver_does_not_swallow_a_bug_in_the_stack(self, monkeypatch):
        """The observed run keeps driving under SOAP faults and timeouts
        only; at the parent it caught ``Exception`` and ``trace`` exited 0."""
        from repro.soap import SoapClient

        def buggy_call(self, *args, **kwargs):
            raise RuntimeError("bug in the stack")
            yield

        monkeypatch.setattr(SoapClient, "call", buggy_call)
        with pytest.raises(RuntimeError, match="bug in the stack"):
            main(["trace", "--samples", "1"])

    def test_check_runs_small_and_clean(self, capsys, tmp_path):
        out = str(tmp_path / "repro.json")
        assert main(["check", "--seeds", "1", "--schedules", "2",
                     "--out", out]) == 0
        output = capsys.readouterr().out
        assert "schedule exploration" in output
        assert "all hold" in output

    def test_check_self_test_catches_unfenced_violation(self, capsys, tmp_path):
        out = str(tmp_path / "self-test.json")
        assert main(["check", "--self-test", "--out", out]) == 0
        output = capsys.readouterr().out
        assert "self-test" in output
        assert "OK" in output

    def test_check_saga_self_test_then_replay_dispatches_on_file(
        self, capsys, tmp_path
    ):
        """What ``make saga-smoke`` chains: --saga composes with
        --self-test, and the one --replay reads the format off the file."""
        out = str(tmp_path / "saga-self-test.json")
        assert main(["check", "--saga", "--self-test", "--out", out]) == 0
        assert "compensation disabled" in capsys.readouterr().out
        assert main(["check", "--replay", out]) == 0
        assert "byte-identical" in capsys.readouterr().out
