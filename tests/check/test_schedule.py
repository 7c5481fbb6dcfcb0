"""Fault ops and schedules: validation, JSON round-trips, sampling."""

import random

import pytest

from repro.check import FaultOp, Schedule, random_schedule
from repro.check.schedule import ACTIONS

HOSTS = ("bpeer0", "bpeer1", "bpeer2")


class TestFaultOpValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultOp(at_decision=1, action="meteor-strike")

    def test_drop_must_target_a_network_point(self):
        with pytest.raises(ValueError):
            FaultOp(at_decision=1, action="drop", point="pre-commit")
        with pytest.raises(ValueError):
            FaultOp(at_decision=1, action="drop")  # "any" includes pre-commit

    def test_decisions_count_from_one(self):
        with pytest.raises(ValueError):
            FaultOp(at_decision=0, action="crash", target="bpeer0")

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultOp(at_decision=1, action="crash", target="bpeer0", duration=0.0)


class TestRoundTrip:
    def test_fault_op_round_trips(self):
        op = FaultOp(
            at_decision=17, action="drop", point="pre-deliver", duration=2.5
        )
        assert FaultOp.from_dict(op.to_dict()) == op

    def test_schedule_round_trips(self):
        schedule = Schedule(
            tiebreak={"kind": "shuffle", "seed": 99},
            ops=(
                FaultOp(at_decision=3, action="crash-coordinator", duration=4.0),
                FaultOp(at_decision=9, action="partition", target="bpeer1"),
            ),
            label="round-trip",
        )
        assert Schedule.from_dict(schedule.to_dict()) == schedule


class TestRandomSchedule:
    def test_deterministic_per_rng_seed(self):
        draw = lambda: random_schedule(  # noqa: E731 - local shorthand
            random.Random("schedule-test"), HOSTS, decision_horizon=400
        )
        assert draw() == draw()

    def test_samples_are_well_formed(self):
        rng = random.Random(5)
        horizon = 400
        window = (horizon * 3) // 4
        for index in range(200):
            schedule = random_schedule(rng, HOSTS, horizon, label=f"s{index}")
            assert 1 <= len(schedule.ops) <= 4
            decisions = [op.at_decision for op in schedule.ops]
            assert decisions == sorted(decisions)
            for op in schedule.ops:
                assert op.action in ACTIONS
                assert 1 <= op.at_decision <= window
                if op.action in ("crash", "partition"):
                    assert op.target in HOSTS
                else:
                    assert op.target is None

    def test_tiny_horizon_rejected(self):
        with pytest.raises(ValueError):
            random_schedule(random.Random(1), HOSTS, decision_horizon=3)
