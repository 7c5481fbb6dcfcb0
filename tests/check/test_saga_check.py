"""Tests for the saga atomicity checker: runs, crashes, repro replay."""

from repro.check import (
    FaultOp,
    SagaCheckScenario,
    Schedule,
    ScheduleExplorer,
    replay_repro,
    run_saga_schedule,
    saga_self_test,
)
from repro.check.saga import ORCHESTRATOR_HOST

SMALL = SagaCheckScenario(seed=3, sagas=6, cooldown=8.0)


def test_baseline_run_is_clean_and_compensates_insolvent():
    result = run_saga_schedule(SMALL, Schedule(label="baseline"))
    assert result.violations == []
    assert result.submitted == 6
    # Sagas 0 and 4 are the insolvent submissions (every 4th).
    assert result.committed == 4
    assert result.compensated == 2
    assert result.saga_states["loan-0000"] == "compensated"
    assert result.saga_states["loan-0001"] == "committed"


def test_orchestrator_crash_recovers_without_violation():
    baseline = run_saga_schedule(SMALL, Schedule(label="baseline"))
    schedule = Schedule(
        ops=(
            FaultOp(
                at_decision=max(1, baseline.decisions // 4),
                action="crash",
                target=ORCHESTRATOR_HOST,
                duration=3.0,
                point="pre-commit",
            ),
        ),
        label="crash-orchestrator",
    )
    result = run_saga_schedule(SMALL, schedule)
    assert result.violations == []
    assert result.fired, "the crash op never fired"
    assert result.recoveries >= 1
    # Every saga still reaches a terminal state.
    assert set(result.saga_states.values()) <= {"committed", "compensated"}


def test_run_digest_is_deterministic():
    first = run_saga_schedule(SMALL, Schedule(label="digest"))
    second = run_saga_schedule(SMALL, Schedule(label="digest"))
    assert first.digest() == second.digest()


def test_self_test_catches_shrinks_and_replays(tmp_path):
    repro_path = str(tmp_path / "saga-repro.json")
    outcome = saga_self_test(seed=42, repro_path=repro_path)
    assert outcome["ok"], outcome
    assert outcome["replay_ok"]
    assert any("stranded" in v for v in outcome["violations"])
    ok, result, expected = replay_repro(repro_path)
    assert ok
    assert result.digest() == expected["digest"]
    assert expected["format"] == SagaCheckScenario.FORMAT


def test_explore_saga_schedules_clean_on_small_budget():
    report = ScheduleExplorer(SMALL, seeds=(3,), schedules_per_seed=2).explore()
    assert report.clean, report.to_dict()
    assert report.runs == 3
