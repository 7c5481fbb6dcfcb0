"""Unit tests for the environment / run loop."""

import pytest

from repro.simnet import Environment, SimulationError
from repro.simnet.environment import EmptySchedule


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_run_until_time_advances_clock(self, env):
        env.timeout(50.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self, env):
        env.timeout(5.0)
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_clock_does_not_advance_past_queue_end(self, env):
        env.timeout(3.0)
        env.run()  # queue drains at t=3
        assert env.now == 3.0


class TestRun:
    def test_run_empty_queue_returns_none(self, env):
        assert env.run() is None

    def test_run_until_event_returns_value(self, env):
        assert env.run(until=env.timeout(2.0, value="v")) == "v"

    def test_run_until_failed_event_raises(self, env):
        event = env.event()
        event.fail(KeyError("k"))
        with pytest.raises(KeyError):
            env.run(until=event)

    def test_run_until_already_processed_event(self, env):
        timeout = env.timeout(1.0, value=7)
        env.run()
        assert env.run(until=timeout) == 7

    def test_run_until_event_that_never_fires_raises(self, env):
        pending = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=pending)

    def test_step_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_reports_next_event_time(self, env):
        env.timeout(4.0)
        env.timeout(2.0)
        assert env.peek() == 2.0

    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_negative_schedule_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=-0.1)


class TestDeterminism:
    def test_same_time_events_fifo(self, env):
        order = []
        for tag in range(10):
            t = env.timeout(1.0, value=tag)
            t.add_callback(lambda e: order.append(e.value))
        env.run()
        assert order == list(range(10))

    def test_urgent_events_processed_first(self, env):
        order = []
        normal = env.event()
        normal._ok, normal._value = True, "normal"
        normal.add_callback(lambda e: order.append(e.value))
        env.schedule(normal, delay=1.0)
        urgent = env.event()
        urgent._ok, urgent._value = True, "urgent"
        urgent.add_callback(lambda e: order.append(e.value))
        env.schedule(urgent, delay=1.0, priority=True)
        env.run()
        assert order == ["urgent", "normal"]

    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            env = Environment()
            seen = []

            def proc():
                for _ in range(5):
                    yield env.timeout(0.5)
                    seen.append(env.now)

            env.process(proc())
            env.run()
            return seen

        assert run_once() == run_once()
