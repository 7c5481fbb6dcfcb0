"""Tests for the command-line interface."""

import pytest

from repro.check import CheckScenario, Schedule
from repro.cli import build_parser, main
from repro.core import UnsupportedScenarioError


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

    def test_no_set_defaults_rewrites_an_action_another_command_shares(self):
        """argparse hands every subparser built with ``parents=`` the parent's
        action *objects*, and ``set_defaults`` writes into the action: at
        the parent, ``overload``'s ``duration=5.0`` became ``campaign``'s
        (documented 90 s), so ``repro campaign`` injected no crash."""
        commands = next(
            action for action in build_parser()._actions if action.choices
        ).choices
        for name, command in commands.items():
            for action in command._actions:
                if action.dest not in command._defaults:
                    continue
                sharers = [
                    other for other, parser in commands.items()
                    if other != name and any(a is action for a in parser._actions)
                ]
                assert not sharers, (name, action.dest, sharers)

    @pytest.mark.parametrize("argv", [
        ["campaign", "--duration", "90"], ["campaign", "--replicas", "4"],
        ["campaign", "--mtbf", "5"], ["campaign", "--mttr", "10"],
        ["campaign", "--partitions", "2"],
        ["campaign", "--partition-duration", "6"],
        ["campaign", "--workload", "enroll"], ["campaign", "--loss", "0.01"],
        ["overload", "--duration", "5"], ["overload", "--rates", "125,250"],
        ["overload", "--replicas", "4"], ["overload", "--dispatch", "qos"],
        ["overload", "--queue-bound", "0"], ["overload", "--deadline", "2"],
        ["shard", "--shards", "1,4"], ["shard", "--replicas", "2"],
        ["shard", "--rate-multiple", "3"], ["shard", "--duration", "4"],
        ["shard", "--window", "5"], ["shard", "--skip-rebalance"],
    ], ids=" ".join)
    def test_experiment_knobs_are_not_flags(self, argv):
        """Each experiment is one definition: its benchmark file's
        parameters, not a second set the command line can vary."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


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

    def test_check_unsupported_axes_are_a_one_line_usage_error(self, capsys):
        """The combination ``check_supported`` rejects exits 2 with its
        message, not a traceback under the "counterexample found" code."""
        with pytest.raises(UnsupportedScenarioError) as rejected:
            CheckScenario(shards=2, regions=2).run(Schedule(label="unsupported"))
        assert main(["check", "--shards", "2", "--regions", "2",
                     "--seeds", "1", "--schedules", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro check: error: {rejected.value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        *(
            pytest.param(
                ["check", *mode, *axis, "--seeds", "1", "--schedules", "0"],
                f"does not read {axis[0]}",
                id=f"{' '.join(axis)}-{' '.join(mode)}",
            )
            for axis in (["--shards", "2"], ["--regions", "2"], ["--capacity"])
            for mode in (
                ["--saga"], ["--self-test"], ["--saga", "--self-test"],
                ["--replay", "tests/check/fixtures/whisper-check-1.json"],
            )
        ),
        *(
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in (
                (["check", "--max-ops", "0"], "--max-ops: must be >= 1, got 0"),
                (["check", "--seeds", "0"], "--seeds: must be >= 1, got 0"),
                (["check", "--schedules", "-1"], "--schedules: must be >= 0, got -1"),
                (["check", "--regions", "0"], "--regions: must be >= 1, got 0"),
                (["check", "--replay", "missing.json"], "--replay: [Errno 2]"),
                (["check", "--replay", "README.md"], "--replay: Expecting value"),
                (["check", "--replay", "nope.json"], "not a repro file (format='nope'"),
                (["check", "--replay", "BENCH_wan.json"], "not a repro file (format=None"),
                (["dlq", "--sagas", "-1"], "--sagas: must be >= 1, got -1"),
                (["trace", "--samples", "-2"], "--samples: must be >= 1, got -2"),
                (["metrics", "--samples", "-2"], "--samples: must be >= 1, got -2"),
                (["trace", "--last", "-1"], "--last: must be >= 0, got -1"),
            )
        ),
    ])
    def test_check_axis_flags_no_mode_reads_are_a_usage_error(
        self, capsys, tmp_path, argv, message
    ):
        """Every argv here exits 2 with one ``repro <command>: error:``
        line on stderr and nothing run: no traceback under the
        "counterexample found" code 1, no vacuous pass."""
        (tmp_path / "nope.json").write_text('{"format": "nope"}')
        if argv[0] == "check":
            argv = [
                str(tmp_path / arg) if arg in ("missing.json", "nope.json") else arg
                for arg in argv
            ] + ["--out", str(tmp_path / "repro.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro {argv[0]}: error: ")
        assert message in line
