"""The explorer end to end: runs, injection, repro files, self-test.

These tests drive real (small) simulated deployments, so they are the
slowest in the package — each ``run_schedule`` is a full
settle/probe/cooldown scenario.  The scenarios stay at the
:class:`CheckScenario` defaults (3 replicas, 12s probe window) to keep
them cheap.  :class:`TestEngine` runs the shrink / repro-file pipeline
once per scenario the engine knows — it is the same code for both.
"""

import json
import pathlib

import pytest

from repro.check import (
    CheckScenario,
    FaultOp,
    SagaCheckScenario,
    Schedule,
    ScheduleExplorer,
    load_repro,
    replay_repro,
    run_schedule,
    save_repro,
    self_test,
    shrink_schedule,
)
from repro.check.explorer import _build_system
from repro.check.saga import ORCHESTRATOR_HOST
from repro.cli import main
from repro.core.bpeer import PROTO_EXEC, ExecRequest
from repro.election.epoch import GENESIS
from repro.p2p import EndpointMessage

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def baseline():
    """One shared clean baseline run (module-scoped: it is pure)."""
    return run_schedule(CheckScenario(), Schedule(label="baseline"))


class TestRunSchedule:
    def test_baseline_is_clean_and_productive(self, baseline):
        assert baseline.violations == []
        assert baseline.probes_ok > 0
        assert baseline.probes_failed == 0
        assert baseline.decisions > 100  # enough room to aim faults
        assert baseline.effects_applied > 0
        assert baseline.hosts  # the watched replica hosts

    def test_runs_are_deterministic(self, baseline):
        again = run_schedule(CheckScenario(), Schedule(label="baseline"))
        assert again.digest() == baseline.digest()

    def test_injected_fault_fires_and_recovers(self, baseline):
        schedule = Schedule(
            ops=(
                FaultOp(
                    at_decision=baseline.decisions // 4,
                    action="crash-coordinator",
                    duration=3.0,
                ),
            ),
            label="one-crash",
        )
        result = run_schedule(CheckScenario(), schedule)
        assert len(result.fired) == 1
        assert result.fired[0]["victim"] in baseline.hosts
        assert result.violations == []  # fencing on: the crash is survivable

    def test_drop_op_fires_at_a_network_point(self, baseline):
        schedule = Schedule(
            ops=(
                FaultOp(
                    at_decision=baseline.decisions // 3,
                    action="drop",
                    point="pre-deliver",
                ),
            ),
            label="one-drop",
        )
        result = run_schedule(CheckScenario(), schedule)
        assert len(result.fired) == 1
        assert result.fired[0]["victim"] == "<message>"
        assert result.violations == []


class TestReproFiles:
    def test_save_load_replay_round_trip(self, tmp_path, baseline):
        path = str(tmp_path / "repro.json")
        schedule = Schedule(
            tiebreak={"kind": "shuffle", "seed": 17}, label="round-trip"
        )
        result = run_schedule(CheckScenario(), schedule)
        save_repro(path, CheckScenario(), schedule, result)
        loaded_scenario, loaded_schedule, expected = load_repro(path)
        assert loaded_scenario == CheckScenario()
        assert loaded_schedule == schedule
        assert expected["digest"] == result.digest()
        ok, replayed, _expected = replay_repro(path)
        assert ok
        assert replayed.digest() == result.digest()

    def test_replay_detects_scenario_drift(self, tmp_path, baseline):
        """A doctored repro file must *fail* replay, not silently pass."""
        path = str(tmp_path / "repro.json")
        schedule = Schedule(label="drift")
        result = run_schedule(CheckScenario(), schedule)
        save_repro(path, CheckScenario(), schedule, result)
        import json

        with open(path) as handle:
            data = json.load(handle)
        data["scenario"]["seed"] = CheckScenario().seed + 1
        with open(path, "w") as handle:
            json.dump(data, handle)
        ok, _replayed, _expected = replay_repro(path)
        assert not ok


#: One violating (scenario, schedule) per scenario class, each with one
#: op more than the violation needs so the shrinker has work to do.
ENGINE_CASES = {
    "check": (
        CheckScenario(seed=42, epoch_fencing=False),
        Schedule(
            ops=(
                FaultOp(at_decision=95, action="partition-coordinator",
                        duration=4.0),
                FaultOp(at_decision=200, action="drop", point="pre-deliver"),
                FaultOp(at_decision=386, action="crash-coordinator",
                        duration=6.0),
            ),
            label="engine",
        ),
    ),
    "saga": (
        SagaCheckScenario(
            seed=3, sagas=6, cooldown=8.0, compensation_enabled=False
        ),
        Schedule(
            ops=(
                FaultOp(at_decision=40, action="crash",
                        target=ORCHESTRATOR_HOST, duration=3.0,
                        point="pre-commit"),
            ),
            label="engine",
        ),
    ),
}


class TestEngine:
    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_violation_shrinks_saves_loads_replays(self, case, tmp_path):
        scenario, schedule = ENGINE_CASES[case]
        assert scenario.run(schedule).violations
        shrunk, shrunk_result, runs = shrink_schedule(scenario, schedule)
        assert runs >= 1
        assert len(shrunk.ops) < len(schedule.ops)
        assert shrunk_result.violations

        path = str(tmp_path / "repro.json")
        payload = save_repro(path, scenario, shrunk, shrunk_result)
        assert payload["format"] == scenario.FORMAT
        loaded_scenario, loaded_schedule, expected = load_repro(path)
        assert loaded_scenario == scenario  # dataclass eq: same class too
        assert loaded_schedule == shrunk
        assert expected["digest"] == shrunk_result.digest()
        ok, replayed, _expected = replay_repro(path)
        assert ok
        assert replayed.digest() == shrunk_result.digest()
        assert replayed.violations == shrunk_result.violations

    @pytest.mark.parametrize(
        "declared", ["whisper-check/2", None, ["whisper-check/1"]]
    )
    def test_unknown_format_is_rejected_naming_both(self, declared, tmp_path):
        path = tmp_path / "repro.json"
        path.write_text(json.dumps({"format": declared, "scenario": {}}))
        with pytest.raises(ValueError) as excinfo:
            load_repro(str(path))
        message = str(excinfo.value)
        assert CheckScenario.FORMAT in message
        assert SagaCheckScenario.FORMAT in message

    @pytest.mark.parametrize(
        "fixture", ["whisper-check-1.json", "whisper-saga-check-1.json"]
    )
    def test_parent_written_fixture_replays_byte_identical(
        self, fixture, capsys
    ):
        """Committed ``check --self-test --out`` / ``check --saga --self-test
        --out`` files replay through the one ``--replay``, which reads the
        format off the file.  The saga file is the one written before the
        two checkers were merged; ``whisper-check-1.json`` was regenerated
        in PR 22, which changed what a proxy sends during a failover (same
        violation, same shrunk schedule)."""
        assert main(["check", "--replay", str(FIXTURES / fixture)]) == 0
        assert "byte-identical (1 violation(s) reproduced)" in (
            capsys.readouterr().out
        )

    def test_fixed_counterexample_replays_clean(self, capsys):
        """``check --capacity`` seed47/0, shrunk (ROADMAP item 3 (ii)): two
        scale events 0.8 s apart inside the 2 s cooldown until PR 24 put the
        event on the cooldown's clock.  The schedule still replays to the
        digest it has with the fix in — no violation."""
        fixture = FIXTURES / "whisper-check-capacity-cooldown.json"
        assert main(["check", "--replay", str(fixture)]) == 0
        assert "byte-identical (0 violation(s) reproduced)" in (
            capsys.readouterr().out
        )


class TestExplorer:
    def test_small_exploration_is_clean(self):
        report = ScheduleExplorer(
            CheckScenario(), seeds=range(1), schedules_per_seed=2
        ).explore()
        assert report.clean
        assert report.runs == 3  # baseline + two schedules
        assert "all hold" in report.format()

    def test_wall_clock_budget_truncates(self):
        report = ScheduleExplorer(
            CheckScenario(),
            seeds=range(3),
            schedules_per_seed=50,
            time_budget=0.0,
        ).explore()
        assert report.truncated
        assert report.clean


class TestSelfTest:
    def test_fencing_off_violation_is_found_shrunk_and_replayed(self, tmp_path):
        """The checker's own teeth: disable epoch fencing and demand the
        harness produce a confirmed, minimal, replayable counterexample."""
        path = str(tmp_path / "self-test-repro.json")
        outcome = self_test(repro_path=path)
        assert outcome["ok"], outcome
        assert outcome["violations"]
        assert outcome["replay_ok"]
        # The shrunk schedule must still violate, and the repro file must
        # declare the fencing-off scenario it ran under.
        assert outcome["shrunk_violations"]
        scenario, schedule, _expected = load_repro(path)
        assert scenario.epoch_fencing is False
        assert schedule.ops  # a schedule-induced violation, not baseline

    def test_unfenced_seam_is_the_electors_and_the_binding_table(self):
        """``epoch_fencing=False`` clears the fence on every peer's elector
        in every shard group and on the proxy's binding table; b-peers
        stay fenced and still bounce a stale-term request."""
        scenario = CheckScenario(epoch_fencing=False, shards=2)
        system, service = _build_system(scenario)
        groups = service.shard_groups["EnrollStudent"]
        assert len(groups) == 2
        for group in groups:
            assert group.peers
            for peer in group.peers:
                assert peer.coordinator_mgr.elector.epoch_fencing is False
        assert service.proxy.bindings.epoch_fencing is False

        system.settle(scenario.settle)
        peer = groups[0].coordinator_peer()
        assert peer.coordinator_mgr.epoch > GENESIS
        replies = []
        peer._reply = lambda request, reply: replies.append(reply)
        stale = ExecRequest(
            request_id=1,
            group_id=peer.group_id,
            operation="EnrollStudent",
            arguments={"ID": "S00001", "course": "C00001"},
            reply_to=peer.peer_id,
            reply_addr=peer.endpoint.address,
            invocation_id="stale#1",
            epoch=GENESIS,
        )
        rejections = peer.stale_epoch_rejections
        peer._on_exec(EndpointMessage(peer.peer_id, peer.peer_id, PROTO_EXEC, stale))
        assert peer.stale_epoch_rejections == rejections + 1
        assert [reply.value for reply in replies] == ["stale-epoch"]
